import ast
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from capclust import CenterSpec, Point, Problem, allocate, allocation, matrix_metric, sqeuclidean, validate_problem
from capclust.errors import Infeasible, NoIncumbentWithinBudget, QExceedsK
from capclust.metrics import distances_to_centers
from oracles import (
    brute_force_hard, dense_lp_fractional, random_capacitated_instance, residual_negative_cycle,
)


def matrix_problem(D, a=None, w=None, q=None, lam=None, capacity=None, membership="hard"):
    n, k = np.asarray(D).shape
    a = a if a is not None else [1.0] * n
    w = w if w is not None else [1.0] * n
    q = q if q is not None else [1] * n
    pts = tuple(Point(i, w=float(w[i]), a=float(a[i]), q=int(q[i])) for i in range(n))
    return validate_problem(Problem(
        points=pts, metric=matrix_metric(np.asarray(D, dtype=float)),
        centers=CenterSpec(k=k),
        membership=membership, capacity=capacity, outlier_penalty=lam,
    ))


def objective_of(problem, assignment, D):
    w = problem.effective_weights
    val = float((w[:, None] * np.asarray(D) * assignment.center_block).sum())
    if problem.has_outlier_column:
        val += problem.outlier_penalty * float((w * assignment.outlier_column).sum())
    return val


def test_point_beyond_lambda_becomes_outlier():
    prob = matrix_problem([[0.3]], lam=0.2)
    y = allocate(prob, np.array([0])).y
    assert y.tolist() == [[0.0, 1.0]]


def test_boundary_distance_stays_assigned():
    prob = matrix_problem([[0.2]], lam=0.2)
    y = allocate(prob, np.array([0])).y
    assert y.tolist() == [[1.0, 0.0]]


def test_coverage_two_takes_two_nearest():
    prob = matrix_problem([[1.0, 2.0, 5.0]], q=[2])
    y = allocate(prob, np.array([0, 1, 2])).y
    assert y.tolist() == [[1.0, 1.0, 0.0]]


def test_coverage_exceeding_columns_raises():
    prob = matrix_problem([[1.0, 2.0]], q=[3])
    with pytest.raises(QExceedsK):
        allocate(prob, np.array([0, 1]))


def test_nearest_tie_breaks_to_lowest_center_index():
    prob = matrix_problem([[2.0, 2.0]])
    y = allocate(prob, np.array([0, 1])).y
    assert y.tolist() == [[1.0, 0.0]]


AB_D = np.array([[0.0, 5.0], [1.0, 3.0]])


def ab_problem(membership):
    return matrix_problem(AB_D, a=[2.0, 2.0], w=[1.0, 1.0], capacity=(1.0, 3.0),
                          membership=membership)


def test_worked_instance_fractional_optimum():
    prob = ab_problem("fractional")
    got = allocate(prob, np.array([0, 1]))
    assert objective_of(prob, got, AB_D) == pytest.approx(2.0, abs=1e-9)
    assert got.y[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert got.y[1, 0] == pytest.approx(0.5, abs=1e-9)
    assert got.y[1, 1] == pytest.approx(0.5, abs=1e-9)


def test_worked_instance_hard_optimum():
    prob = ab_problem("hard")
    got = allocate(prob, np.array([0, 1]))
    assert objective_of(prob, got, AB_D) == pytest.approx(3.0, abs=1e-9)
    assert got.y.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def presolve_settings(monkeypatch):
    """Yield "on" (HiGHS's default), then "off" with every allocation model built meanwhile patched to it."""
    yield "on"
    pass_model = allocation._AllocationLP._pass_model

    def without_presolve(self):
        highs = pass_model(self)
        assert highs.setOptionValue("presolve", "off") == self.hs.HighsStatus.kOk
        return highs

    with monkeypatch.context() as patch:
        patch.setattr(allocation._AllocationLP, "_pass_model", without_presolve)
        yield "off"


def tie_cases():
    """(D, w, lambda_o) with a clear nearest center, a tie between both centers
    (the lowest index wins) and a point with w' = 0 (every column costs 0, so
    only the distances rank them); then the same with rows tied with the
    outlier column, where the center wins."""
    D = np.array([[1.0, 4.0], [3.0, 0.5], [2.0, 2.0], [5.0, 3.0]])
    w = [1.0, 1.0, 1.0, 0.0]
    yield D, w, None
    yield np.vstack([D, [[2.0, 6.0], [2.0, 2.0], [0.0, 0.0]]]), w + [1.0, 1.0, 0.0], 2.0


def test_unbounded_window_reduces_to_nearest_assignment(monkeypatch):
    for presolve in presolve_settings(monkeypatch):
        for D, w, lam in tie_cases():
            prob = matrix_problem(D, w=w, lam=lam, membership="fractional", capacity=(0.0, math.inf))
            got = allocate(prob, np.array([0, 1]))
            want = allocate(replace(prob, capacity=None), np.array([0, 1]))
            assert np.array_equal(got.y, want.y), (presolve, lam)


def test_loose_window_matches_uncapacitated_hard(monkeypatch):
    for presolve in presolve_settings(monkeypatch):
        for D, w, lam in tie_cases():
            prob = matrix_problem(D, w=w, lam=lam, membership="hard", capacity=(0.0, 100.0))
            got = allocate(prob, np.array([0, 1]))
            want = allocate(replace(prob, capacity=None), np.array([0, 1]))
            assert got.diagnostics.get("fastpath") == "lp_integral", (presolve, lam)
            assert np.array_equal(got.y, want.y), (presolve, lam)


def test_single_center_overflow_is_infeasible():
    prob = matrix_problem([[1.0], [1.0], [1.0]], a=[2.0, 2.0, 2.0], capacity=(0.0, 5.0))
    with pytest.raises(Infeasible):
        allocate(prob, np.array([0]))
    with pytest.raises(Infeasible):
        allocate(matrix_problem([[1.0], [1.0], [1.0]], a=[2.0] * 3, capacity=(0.0, 5.0), membership="fractional"),
                 np.array([0]))


def test_indivisible_exact_window_hard_infeasible_fractional_fine():
    # loads must hit exactly 4 per center but coefficients 3,3,2 cannot tile
    prob_hard = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0))
    with pytest.raises(Infeasible):
        allocate(prob_hard, np.array([0, 1]))
    prob_frac = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0),
                               membership="fractional")
    got = allocate(prob_frac, np.array([0, 1]))
    loads = got.loads(prob_frac.capacity_coeffs)
    assert np.allclose(loads, 4.0, atol=1e-6)


def test_indivisible_window_hard_infeasible_is_silent(capfd):
    prob = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0))
    with pytest.raises(Infeasible):
        allocate(prob, np.array([0, 1]))
    assert capfd.readouterr() == ("", "")


def test_unequal_coefficients_hard_instance_solves_to_optimality():
    # n=100, k=5, unequal a, a +-20% window around the mean load; the LP
    # root is fractional, and a best-first branch and bound still had a 14%
    # gap on this instance after 3 s
    rng = np.random.default_rng(4)
    xy = rng.uniform(0.0, 10.0, size=(100, 2))
    sites = rng.uniform(0.0, 10.0, size=(5, 2))
    D = ((xy[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    a = rng.uniform(0.5, 2.0, size=100)
    mean_load = a.sum() / 5
    prob = matrix_problem(D, a=a, capacity=(0.8 * mean_load, 1.2 * mean_load))
    got = allocate(prob, np.arange(5), time_budget=20.0)
    assert "fastpath" not in got.diagnostics
    assert "optimality_gap" not in got.diagnostics
    assert np.isin(got.y, (0.0, 1.0)).all()
    loads = got.loads(prob.capacity_coeffs)
    assert (loads >= 0.8 * mean_load - 1e-9).all() and (loads <= 1.2 * mean_load + 1e-9).all()


def test_infeasibility_certificates_mention_failing_bound():
    with pytest.raises(Infeasible, match="upper"):
        allocate(matrix_problem([[1.0]], a=[4.0], capacity=(0.0, 2.0), membership="fractional"), np.array([0]))
    with pytest.raises(Infeasible, match="lower"):
        allocate(matrix_problem([[1.0, 1.0]], a=[1.0], capacity=(3.0, 9.0), membership="fractional"),
                 np.array([0, 1]))


def test_equal_coefficients_fast_path_detected():
    D = np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5], [0.5, 3.0]])
    prob = matrix_problem(D, a=[2.0] * 4, capacity=(2.0, 6.0))
    got = allocate(prob, np.array([0, 1]))
    assert got.diagnostics.get("fastpath") == "lp_integral"
    assert np.isin(got.y, (0.0, 1.0)).all()


def test_zero_capacity_points_assigned_greedily():
    D = np.array([[1.0, 4.0], [9.0, 2.0]])
    prob = matrix_problem(D, a=[0.0, 3.0], w=[2.0, 1.0], capacity=(0.0, 3.0),
                          membership="fractional")
    got = allocate(prob, np.array([0, 1]))
    assert got.y[0].tolist() == [1.0, 0.0]  # no capacity consumed, takes its nearest
    loads = got.loads(prob.capacity_coeffs)
    assert loads[0] == 0.0 or loads[0] <= 3.0 + 1e-9
    for membership in ("fractional", "hard"):  # no point uses capacity at all
        prob = matrix_problem(D, a=[0.0, 0.0], capacity=(0.0, 3.0), membership=membership)
        assert allocate(prob, np.array([0, 1])).y.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_fractional_matches_dense_lp_oracle_on_randoms():
    rng = np.random.default_rng(101)
    compared = 0
    for _ in range(60):
        problem, centers = random_capacitated_instance(rng)
        D = problem.metric.matrix
        expect = dense_lp_fractional(problem, D)
        try:
            got = allocate(replace(problem, membership="fractional"), centers)
        except Infeasible:
            assert expect is None
            continue
        assert expect is not None
        assert objective_of(problem, got, D) == pytest.approx(expect, abs=1e-9 * max(1, abs(expect)))
        loads = got.loads(problem.capacity_coeffs)
        lo, hi = problem.capacity
        assert (loads >= lo - 1e-6).all() and (loads <= hi + 1e-6).all()
        assert np.allclose(got.row_sums(), problem.coverages, atol=1e-6)
        assert not residual_negative_cycle(problem, D, got.y)
        compared += 1
    assert compared > 25


def test_negative_cycle_oracle_flags_suboptimal_assignment():
    prob = ab_problem("fractional")
    assert not residual_negative_cycle(prob, AB_D, np.array([[1.0, 0.0], [0.5, 0.5]]))
    # feasible (loads 2 and 2) but 6 > 2: moving point 0 to center 0 pays
    assert residual_negative_cycle(prob, AB_D, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_hard_matches_brute_force_on_randoms():
    rng = np.random.default_rng(202)
    compared = 0
    for _ in range(60):
        problem, centers = random_capacitated_instance(rng, n_max=6)
        D = problem.metric.matrix
        expect = brute_force_hard(problem, D)
        try:
            got = allocate(problem, centers)
        except Infeasible:
            assert expect is None
            continue
        assert expect is not None
        assert objective_of(problem, got, D) == pytest.approx(expect, abs=1e-9 * max(1, abs(expect)))
        assert np.isin(got.y, (0.0, 1.0)).all()
        compared += 1
    assert compared > 25


def test_relaxation_dominance_on_randoms():
    rng = np.random.default_rng(303)
    for _ in range(40):
        problem, centers = random_capacitated_instance(rng, n_max=6)
        D = problem.metric.matrix
        try:
            hard = allocate(problem, centers)
        except Infeasible:
            continue
        frac = allocate(replace(problem, membership="fractional"), centers)
        assert objective_of(problem, frac, D) <= objective_of(problem, hard, D) + 1e-9


def test_coverage_greater_than_one_with_capacity():
    D = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])
    prob = matrix_problem(D, a=[1.0, 1.0], q=[2, 1], capacity=(0.0, 2.0))
    got = allocate(prob, np.array([0, 1, 2]))
    assert got.row_sums().tolist() == [2.0, 1.0]
    expect = brute_force_coverage_two(prob, D)
    assert objective_of(prob, got, D) == pytest.approx(expect, abs=1e-9)


def brute_force_coverage_two(problem, D):
    import itertools
    n, k = D.shape
    a = problem.capacity_coeffs
    w = problem.effective_weights
    lo, hi = problem.capacity
    q = problem.coverages
    best = None
    choices = [list(itertools.combinations(range(k), qi)) for qi in q]
    for combo in itertools.product(*choices):
        loads = np.zeros(k)
        cost = 0.0
        for i, picks in enumerate(combo):
            for j in picks:
                loads[j] += a[i]
                cost += w[i] * D[i, j]
        if (loads >= lo - 1e-12).all() and (loads <= hi + 1e-12).all():
            if best is None or cost < best:
                best = cost
    return best


def test_exhausted_budget_returns_incumbent_with_gap():
    prob = ab_problem("hard")
    got = allocate(prob, np.array([0, 1]), time_budget=0.0)
    assert got.diagnostics.get("optimality_gap", 0.0) > 0.0
    assert objective_of(prob, got, AB_D) == pytest.approx(3.0, abs=1e-9)


def test_exhausted_budget_without_incumbent_raises():
    prob = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0))
    with pytest.raises((NoIncumbentWithinBudget, Infeasible)):
        allocate(prob, np.array([0, 1]), time_budget=0.0)


def test_integral_coefficients_narrow_window_precheck():
    # integer loads cannot reach a fractional-only window
    prob = matrix_problem([[1.0, 2.0]] * 4, a=[1.0] * 4, capacity=(2.2, 2.8))
    with pytest.raises(Infeasible):
        allocate(prob, np.array([0, 1]))


def test_dispatcher_routes_by_capacity_and_membership():
    D = np.array([[1.0, 2.0]])
    uncap = allocate(matrix_problem(D), np.array([0, 1]))
    assert uncap.y.tolist() == [[1.0, 0.0]] and "nodes" not in uncap.diagnostics
    # the LP splits point 1 between the centers; only the hard step reports its nodes
    frac = allocate(ab_problem("fractional"), np.array([0, 1]))
    assert frac.y[1].tolist() == pytest.approx([0.5, 0.5], abs=1e-9) and "nodes" not in frac.diagnostics
    hard = allocate(matrix_problem(D, capacity=(0.0, 2.0), membership="hard"), np.array([0, 1]))
    assert np.isin(hard.y, (0.0, 1.0)).all() and hard.diagnostics["nodes"] == 1


def greedy_rows_loop(D, problem, rows, y):
    """Per-row reference for allocation._greedy_rows."""
    cols = D
    if problem.has_outlier_column:
        cols = np.column_stack([D, np.full(D.shape[0], problem.outlier_penalty)])
    for i in rows:
        order = np.argsort(cols[i], kind="stable")
        y[i, order[: problem.coverages[i]]] = 1.0


def test_greedy_rows_matches_per_row_loop():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        D = rng.integers(0, 4, size=(n, k)).astype(float)  # many ties
        lam = float(rng.integers(0, 4)) if rng.random() < 0.6 else None  # ties with the outlier column too
        n_cols = k + (lam is not None)
        q = rng.integers(1, n_cols + 1, size=n)
        prob = matrix_problem(D, q=q, lam=lam)
        rows = np.flatnonzero(rng.random(n) < 0.7)
        got, want = np.zeros((n, n_cols)), np.zeros((n, n_cols))
        allocation._greedy_rows(D, prob, rows, got)
        greedy_rows_loop(D, prob, rows, want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["random", "tied", "at-lambda"])
@pytest.mark.parametrize("membership", ["hard", "fractional"])
def test_nearest_column_matches_the_stacked_argmin(case, membership):
    # Reference: argmin over the distances with the outlier column (lambda_o) appended last.
    rng = np.random.default_rng(["random", "tied", "at-lambda"].index(case))
    for _ in range(40):
        n, k = int(rng.integers(1, 15)), int(rng.integers(1, 6))
        lam = 2.0 if rng.random() < 0.75 else None
        if case == "random":
            D = rng.uniform(0.0, 4.0, size=(n, k))
        elif case == "tied":
            D = rng.integers(0, 4, size=(n, k)).astype(float)
        else:
            D = np.where(rng.random((n, k)) < 0.5, 2.0, rng.choice([1.0, 3.0], size=(n, k)))
        prob = matrix_problem(D, lam=lam, membership=membership)
        cols = D if lam is None else np.column_stack([D, np.full(n, lam)])
        want = np.argmin(cols, axis=1)
        got = allocate(prob, np.arange(k))
        assert np.array_equal(got.y, np.eye(cols.shape[1])[want])
        assert np.array_equal(got.labels, want)  # one-hot rows under either membership


def test_zero_capacity_rows_come_from_the_model(monkeypatch):
    # The a_i = 0 rows are rows of the model's program, not found per allocation.
    prob = matrix_problem([[1.0, 4.0], [9.0, 2.0], [3.0, 1.0]], a=[0.0, 3.0, 2.0], capacity=(0.0, 4.0),
                          membership="fractional")
    model = allocation.lp_model(prob)
    real = np.flatnonzero
    calls = []
    monkeypatch.setattr(np, "flatnonzero", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for centers in ([0, 1], [1, 0]):
        got = allocate(prob, np.array(centers), model=model)
        assert got.y[0].tolist() == ([1.0, 0.0] if centers == [0, 1] else [0.0, 1.0])
    assert calls == []


def moving_center_instance(rng, window=(0.7, 1.3)):
    """Continuous instance with a_i = 0 rows, q up to 2, and an outlier column half the time.

    The capacity window is ``window`` times the mean load.
    """
    n, k = int(rng.integers(3, 9)), int(rng.integers(2, 4))
    xy = rng.uniform(0.0, 10.0, size=(n, 2))
    a = np.where(rng.random(n) < 0.2, 0.0, np.round(rng.uniform(0.3, 3.0, size=n), 6))
    q = rng.integers(1, 3, size=n)
    w = np.round(rng.uniform(0.2, 3.0, size=n), 6)
    lam = float(np.round(rng.uniform(5.0, 40.0), 6)) if rng.random() < 0.5 else None
    mean_load = float(a @ q) / k
    points = tuple(Point(i, coords=tuple(xy[i]), w=float(w[i]), a=float(a[i]), q=int(q[i])) for i in range(n))
    problem = validate_problem(Problem(
        points=points, metric=sqeuclidean(), centers=CenterSpec(k=k), membership="fractional",
        capacity=(window[0] * mean_load, window[1] * mean_load), outlier_penalty=lam,
    ))
    return problem, rng.uniform(0.0, 10.0, size=(k, 2))


def test_warm_model_matches_milp_as_centers_move(lp_binding, monkeypatch):
    rng = np.random.default_rng(505)
    solved = 0
    for _ in range(30):
        problem, centers = moving_center_instance(rng)
        model = allocation.lp_model(problem)
        for _move in range(4):
            centers = centers + rng.normal(0.0, 1.0, size=centers.shape)
            D = distances_to_centers(problem, centers)
            expect = dense_lp_fractional(problem, D)
            try:
                got = allocate(problem, centers, model=model)
            except Infeasible:
                assert expect is None
                break
            with monkeypatch.context() as patch:  # a cold milp solve of the same LP
                patch.setattr(allocation, "_find_binding", lambda: None)
                cold = allocate(problem, centers)
            tol = 1e-9 * max(1.0, abs(expect))
            assert objective_of(problem, got, D) == pytest.approx(expect, abs=tol)
            assert objective_of(problem, got, D) == pytest.approx(objective_of(problem, cold, D), abs=tol)
            lo, hi = problem.capacity
            loads = got.loads(problem.capacity_coeffs)
            assert (loads >= lo - 1e-6).all() and (loads <= hi + 1e-6).all()
            assert np.allclose(got.row_sums(), problem.coverages, atol=1e-6)
            assert ((got.y >= 0.0) & (got.y <= 1.0)).all()
            solved += 1
    assert solved > 60


def test_restarted_model_solves_like_a_new_one(lp_binding):
    # Integer costs tie often, so the LP has many optima and a solve warm
    # from another cost vector's basis often ends at a different one.
    rng = np.random.default_rng(6)
    for _ in range(10):
        xy = rng.integers(0, 4, (30, 2)).astype(float)
        prob = validate_problem(Problem(
            points=tuple(Point(i, coords=tuple(xy[i])) for i in range(30)), metric=sqeuclidean(),
            centers=CenterSpec(k=3), membership="fractional", capacity=(9.0, 11.0)))
        costs = [rng.integers(0, 5, (30, 3)).astype(float) for _ in range(3)]
        model = allocation.lp_model(prob)
        model.solve(costs[0], costs[0])  # w' = 1, so the costs are the distances too
        model.solve(costs[1], costs[1])
        model.restart()
        assert np.array_equal(model.solve(costs[2], costs[2]), allocation.lp_model(prob).solve(costs[2], costs[2]))


def test_first_lp_starts_from_the_nearest_assignment():
    # Where the window does not bind, the nearest assignment's basis is
    # optimal, so the first LP of a new model and of a restarted one takes
    # no simplex iteration and returns exactly the uncapacitated answer.
    rng = np.random.default_rng(707)
    for _ in range(20):
        problem, centers = moving_center_instance(rng, window=(0.0, 10.0))
        model = allocation.lp_model(problem)
        for _descent in range(2):
            D = distances_to_centers(problem, centers)
            got = allocate(problem, centers, distances=D, model=model)
            assert model._highs.getInfo().simplex_iteration_count == 0
            assert np.array_equal(got.y, allocate(replace(problem, capacity=None), centers, distances=D).y)
            for _move in range(2):  # warm re-solves, then a new descent
                centers = centers + rng.normal(0.0, 2.0, size=centers.shape)
                allocate(problem, centers, model=model)
            model.restart()


def test_warm_model_infeasible_window_raises(lp_binding, monkeypatch):
    # three points of a = 2 cannot fit one center of U = 5; solved directly,
    # without the aggregate certificate in front of it
    prob = matrix_problem([[1.0], [1.0], [1.0]], a=[2.0] * 3, capacity=(0.0, 5.0), membership="fractional")
    monkeypatch.setattr(allocation, "_aggregate_certificate", lambda *args: None)
    model = allocation.lp_model(prob)
    for cost in map(np.array, ([[1.0], [2.0], [3.0]], [[3.0], [1.0], [2.0]])):
        with pytest.raises(Infeasible, match="no fractional assignment"):
            model.solve(cost, cost)


def test_warm_model_prints_nothing(capfd, lp_binding, monkeypatch):
    rng = np.random.default_rng(606)
    problem, centers = moving_center_instance(rng)
    model = allocation.lp_model(problem)
    for _ in range(3):
        centers = centers + rng.normal(0.0, 1.0, size=centers.shape)
        try:
            allocate(problem, centers, model=model)
        except Infeasible:
            pass
    monkeypatch.setattr(allocation, "_aggregate_certificate", lambda *args: None)  # reach HiGHS's own verdict
    with pytest.raises(Infeasible):
        cost = np.ones((3, 1))
        allocation.lp_model(matrix_problem([[1.0]] * 3, a=[2.0] * 3, capacity=(0.0, 5.0))).solve(cost, cost)
    assert capfd.readouterr() == ("", "")


def test_time_budget_never_returns_worse_than_greedy():
    # n = 200, k = 8, integer a in [1, 5], a +-20% window: HiGHS's first
    # incumbents can cost twice the greedy fill, so whenever a budget stops
    # the search early the greedy one must win
    rng = np.random.default_rng(1)
    n, k = 200, 8
    xy = rng.uniform(0.0, 100.0, size=(n, 2))
    centers = rng.uniform(0.0, 100.0, size=(k, 2))
    a = rng.integers(1, 6, size=n).astype(float)
    mean_load = a.sum() / k
    problem = validate_problem(Problem(
        points=tuple(Point(i, coords=tuple(xy[i]), a=float(a[i])) for i in range(n)),
        metric=sqeuclidean(), centers=CenterSpec(k=k), membership="hard",
        capacity=(0.8 * mean_load, 1.2 * mean_load),
    ))
    D = distances_to_centers(problem, centers)
    cost = allocation._column_costs(problem, D)
    greedy = allocation._greedy_incumbent(problem, D)
    assert greedy is not None
    for budget in (0.0, 0.002, 0.005, 0.01, 0.02):
        got = allocate(problem, centers, time_budget=budget)
        assert allocation._objective(problem, cost, got.y) <= allocation._objective(problem, cost, greedy)


def _names_in(node) -> list[str]:
    """Every module name, string, attribute and variable name one AST node spells."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]  # a module name handed to importlib, sys.modules or getattr
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def _globals_writes(tree) -> list[int]:
    """The lines that write through ``globals()``, directly or through a name bound to it."""
    def is_globals(node) -> bool:
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "globals"
                or isinstance(node, ast.Name) and node.id in aliases)

    aliases = set()  # while the aliases are collected, only a globals() call matches
    aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and is_globals(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) and is_globals(node.value)
            or isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("setdefault", "update")
            and is_globals(node.func.value)]


def test_private_highs_binding_is_imported_in_one_module():
    src = Path(allocation.__file__).parent
    importers, writers = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if any("_highspy" in name for name in _names_in(node)):
                importers.append(path.name)
        writers += [f"{path.name}:{line}" for line in _globals_writes(tree)]
    assert sorted(set(importers)) == ["allocation.py"]
    # each way of reaching the binding counts
    for code in ["from scipy.optimize._highspy import _core", "import scipy.optimize._highspy._core",
                 "importlib.import_module('scipy.optimize._highspy._core')", "sys.modules['scipy.optimize._highspy']",
                 "allocation._highspy.HighsLp()"]:
        assert any("_highspy" in name for node in ast.walk(ast.parse(code)) for name in _names_in(node)), code
    # No module rebinds its own names at run time; reading globals() is allowed.
    assert writers == []
    for code in ["globals()['x'] = 1", "globals().setdefault('x', 1)", "names = globals()\nnames['x'] = 1",
                 "names = globals()\nnames.setdefault('x', 1)"]:
        assert _globals_writes(ast.parse(code)), code
    assert _globals_writes(ast.parse("names = sorted(set(globals()) | {'x'})\nnames.append('y')")) == []


def test_a_moved_binding_is_none(monkeypatch):
    # A scipy upgrade that moves the extension leaves every LP to milp, cold.
    monkeypatch.setattr(allocation, "_BINDING", "scipy.optimize._highspy._moved")
    assert allocation._find_binding() is None
    assert "scipy.optimize._highspy._moved" not in sys.modules


def coo_constraint(problem):
    """The allocation LP's rows as scipy builds them from (row, column) pairs: a ``LinearConstraint``."""
    from scipy import sparse
    from scipy.optimize import LinearConstraint

    lo, hi = problem.capacity
    k, a = problem.k, problem.capacity_coeffs
    m, n_cols = problem.n, k + (1 if problem.has_outlier_column else 0)
    var = np.arange(m * n_cols).reshape(m, n_cols)
    rows = np.concatenate([np.repeat(np.arange(m), n_cols), m + np.tile(np.arange(k), m)])
    cols = np.concatenate([var.ravel(), var[:, :k].ravel()])
    vals = np.concatenate([np.ones(m * n_cols), np.repeat(a, k)])
    A = sparse.csc_array((vals, (rows, cols)), shape=(m + k, m * n_cols))
    q = problem.coverages
    return LinearConstraint(A, np.concatenate([q, np.full(k, lo)]), np.concatenate([q, np.full(k, hi)]))


@pytest.mark.parametrize("lam", [None, 4.0], ids=["no-outlier", "outlier"])
@pytest.mark.parametrize("zeros, twos", [([], []), ([0, 4], []), ([], [1, 5]), ([2, 3], [3, 6])],
                         ids=["plain", "a-zero", "q-two", "both"])
def test_lp_rows_equal_scipys_csc_and_bounds(lam, zeros, twos):
    rng = np.random.default_rng(len(zeros) + 2 * len(twos))
    n, k = 8, 3
    a, q = rng.uniform(0.5, 2.0, n), np.ones(n, dtype=int)
    a[zeros], q[twos] = 0.0, 2
    prob = matrix_problem(rng.uniform(0.0, 5.0, (n, k)), a=a, q=q, lam=lam, capacity=(1.0, 7.0),
                          membership="fractional")
    (start, index, value), lower, upper = allocation._lp_rows(prob)
    expect = coo_constraint(prob)
    for got, want in [(start, expect.A.indptr), (index, expect.A.indices), (value, expect.A.data),
                      (lower, expect.lb), (upper, expect.ub)]:
        assert np.array_equal(got, want)
    # milp gets the same arrays, wrapped
    made = allocation.lp_model(prob)._constraint
    assert made.A.shape == expect.A.shape
    assert all(np.array_equal(getattr(made.A, name), getattr(expect.A, name)) for name in ("indptr", "indices", "data"))
    assert np.array_equal(made.lb, expect.lb) and np.array_equal(made.ub, expect.ub)


def full_milp_objective(problem, D):
    """Hard optimum of one ``milp`` over every y_ij, on the rows of ``coo_constraint``; None if infeasible."""
    from scipy.optimize import Bounds, milp

    w = problem.effective_weights
    cost = w[:, None] * D
    if problem.has_outlier_column:
        cost = np.column_stack([cost, w * problem.outlier_penalty])
    res = milp(cost.ravel(), constraints=coo_constraint(problem), integrality=1, bounds=Bounds(0.0, 1.0),
               options={"mip_rel_gap": 0.0})
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else float(res.fun)


def zero_capacity_corpus(rng, count):
    """(D, a, w, q, lam) on integer distances, so many columns tie, with a_i = 0 points.

    Points 0 and 1 have a_i = 0, and point 1 also w'_i = 0; about a third
    of the others have a_i = 0, and w ranges over {0, 1, 2}.
    """
    for _ in range(count):
        n, k = int(rng.integers(4, 10)), int(rng.integers(2, 4))
        D = rng.integers(0, 5, size=(n, k)).astype(float)
        a = np.where(rng.random(n) < 0.3, 0.0, rng.integers(1, 4, size=n).astype(float))
        w = rng.integers(0, 3, size=n).astype(float)
        a[:2], w[1] = 0.0, 0.0
        yield D, a, w, rng.integers(1, 3, size=n), (3.0 if rng.random() < 0.5 else None)


@pytest.mark.parametrize("membership", ["hard", "fractional"])
def test_zero_capacity_points_under_wide_and_binding_windows(lp_binding, membership):
    # A wide window gives every point, a_i = 0 and w'_i = 0 included, its
    # nearest columns, ties to the lowest index; a binding one gives the optimum.
    rng = np.random.default_rng(38)
    bound = 0
    for D, a, w, q, lam in zero_capacity_corpus(rng, 80):
        k = D.shape[1]
        demand = float(a @ q)
        wide = matrix_problem(D, a=a, w=w, q=q, lam=lam, capacity=(0.0, demand + 1.0), membership=membership)
        got = allocate(wide, np.arange(k))
        if lp_binding == "highspy":  # milp has no start basis, so HiGHS picks among tied optima
            assert np.array_equal(got.y, allocate(replace(wide, capacity=None), np.arange(k)).y)
        nearest = objective_of(wide, allocate(replace(wide, capacity=None), np.arange(k)), D)
        assert objective_of(wide, got, D) == pytest.approx(nearest, abs=1e-9)
        tight = replace(wide, capacity=(0.8 * demand / k, 1.2 * demand / k))
        expect = dense_lp_fractional(tight, D) if membership == "fractional" else full_milp_objective(tight, D)
        try:
            value = objective_of(tight, allocate(tight, np.arange(k)), D)
        except Infeasible:
            assert expect is None
            continue
        assert value == pytest.approx(expect, abs=1e-9 * max(1.0, expect))
        bound += value > nearest + 1e-9
    assert bound >= 8  # windows that bind: 10 hard and 31 fractional


@pytest.mark.parametrize("membership", ["hard", "fractional"])
def test_all_zero_capacity_problem_allocates_as_uncapacitated(lp_binding, membership):
    rng = np.random.default_rng(39)
    for _ in range(30):
        n, k = int(rng.integers(1, 10)), int(rng.integers(2, 5))
        prob = matrix_problem(rng.uniform(0.0, 5.0, (n, k)), a=np.zeros(n), q=rng.integers(1, 3, size=n),
                              lam=(2.5 if rng.random() < 0.5 else None), capacity=(0.0, 5.0), membership=membership)
        want = allocate(replace(prob, capacity=None), np.arange(k)).y
        assert np.array_equal(allocate(prob, np.arange(k)).y, want)


def greedy_incumbent_loop(problem, D):
    """Per-point reference for allocation._greedy_incumbent, its repair pulls one (i, src) pair at a time."""
    lo, hi = problem.capacity
    k = problem.k
    has_outlier = problem.has_outlier_column
    n_cols = k + (1 if has_outlier else 0)
    a = problem.capacity_coeffs
    q = problem.coverages
    cols_cost = allocation._column_costs(problem, D)
    y = np.zeros((problem.n, n_cols))
    zero = np.flatnonzero(a == 0)
    if zero.size:
        allocation._greedy_rows(D, problem, zero, y)
    loads = np.zeros(k)
    for i in sorted(np.flatnonzero(a > 0), key=lambda i: (-a[i], i)):
        taken = 0
        for j in np.argsort(cols_cost[i], kind="stable"):
            if taken == q[i]:
                break
            if j == k and has_outlier:
                y[i, j] = 1.0
                taken += 1
            elif j < k and loads[j] + a[i] <= hi + 1e-9:
                y[i, j] = 1.0
                loads[j] += a[i]
                taken += 1
        if taken < q[i]:
            return None
    for j in range(k):
        guard = 0
        while loads[j] < lo - 1e-9 and guard < 4 * problem.n:
            guard += 1
            best = None
            for i in np.flatnonzero(a > 0):
                if y[i, j] == 1.0 or loads[j] + a[i] > hi + 1e-9:
                    continue
                for src in range(n_cols):
                    if y[i, src] != 1.0 or src == j:
                        continue
                    if src < k and loads[src] - a[i] < lo - 1e-9:
                        continue
                    delta = cols_cost[i, j] - cols_cost[i, src]
                    if best is None or delta < best[0]:
                        best = (delta, i, src)
            if best is None:
                return None
            _delta, i, src = best
            y[i, src] = 0.0
            y[i, j] = 1.0
            loads[j] += a[i]
            if src < k:
                loads[src] -= a[i]
    return y if allocation._verify_hard(problem, y) else None


def test_greedy_incumbent_matches_per_point_loop():
    rng = np.random.default_rng(707)
    found = 0
    for _ in range(150):
        n, k = int(rng.integers(5, 40)), int(rng.integers(2, 6))
        D = rng.integers(0, 6, size=(n, k)).astype(float)  # many tied moves
        a = np.where(rng.random(n) < 0.1, 0.0, rng.integers(1, 6, size=n).astype(float))
        lam = float(rng.integers(2, 6)) if rng.random() < 0.4 else None
        q = np.where(rng.random(n) < 0.2, 2, 1) if k > 2 else None
        s = float(rng.choice([0.02, 0.1, 0.3]))
        mean_load = float(a @ (q if q is not None else np.ones(n))) / k
        prob = matrix_problem(D, a=a, q=q, lam=lam, capacity=((1 - s) * mean_load, (1 + s) * mean_load))
        got, want = allocation._greedy_incumbent(prob, D), greedy_incumbent_loop(prob, D)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
            found += 1
    assert found >= 30
