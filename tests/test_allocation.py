import math

import numpy as np
import pytest

from capclust import (
    CenterSpec, Point, Problem, allocate, allocate_fractional, allocate_hard,
    allocate_uncapacitated, matrix_metric, validate_problem,
)
from capclust.errors import Infeasible, NoIncumbentWithinBudget, QExceedsK
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
        centers=CenterSpec(k=k, placement="discrete"),
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
    y = allocate_uncapacitated(prob, np.array([0])).y
    assert y.tolist() == [[0.0, 1.0]]


def test_boundary_distance_stays_assigned():
    prob = matrix_problem([[0.2]], lam=0.2)
    y = allocate_uncapacitated(prob, np.array([0])).y
    assert y.tolist() == [[1.0, 0.0]]


def test_coverage_two_takes_two_nearest():
    prob = matrix_problem([[1.0, 2.0, 5.0]], q=[2])
    y = allocate_uncapacitated(prob, np.array([0, 1, 2])).y
    assert y.tolist() == [[1.0, 1.0, 0.0]]


def test_coverage_exceeding_columns_raises():
    prob = matrix_problem([[1.0, 2.0]], q=[3])
    with pytest.raises(QExceedsK):
        allocate_uncapacitated(prob, np.array([0, 1]))


def test_nearest_tie_breaks_to_lowest_center_index():
    prob = matrix_problem([[2.0, 2.0]])
    y = allocate_uncapacitated(prob, np.array([0, 1])).y
    assert y.tolist() == [[1.0, 0.0]]


AB_D = np.array([[0.0, 5.0], [1.0, 3.0]])


def ab_problem(membership):
    return matrix_problem(AB_D, a=[2.0, 2.0], w=[1.0, 1.0], capacity=(1.0, 3.0),
                          membership=membership)


def test_worked_instance_fractional_optimum():
    prob = ab_problem("fractional")
    got = allocate_fractional(prob, np.array([0, 1]))
    assert objective_of(prob, got, AB_D) == pytest.approx(2.0, abs=1e-9)
    assert got.y[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert got.y[1, 0] == pytest.approx(0.5, abs=1e-9)
    assert got.y[1, 1] == pytest.approx(0.5, abs=1e-9)


def test_worked_instance_hard_optimum():
    prob = ab_problem("hard")
    got = allocate_hard(prob, np.array([0, 1]))
    assert objective_of(prob, got, AB_D) == pytest.approx(3.0, abs=1e-9)
    assert got.y.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_unbounded_window_reduces_to_nearest_assignment():
    D = np.array([[1.0, 4.0], [3.0, 0.5], [2.0, 2.0]])
    prob = matrix_problem(D, membership="fractional", capacity=(0.0, math.inf))
    got = allocate_fractional(prob, np.array([0, 1]))
    want = allocate_uncapacitated(prob, np.array([0, 1]))
    assert np.allclose(got.y, want.y, atol=1e-9)


def test_loose_window_matches_uncapacitated_hard():
    D = np.array([[1.0, 4.0], [3.0, 0.5], [2.0, 2.0]])
    prob = matrix_problem(D, membership="hard", capacity=(0.0, 100.0))
    got = allocate_hard(prob, np.array([0, 1]))
    want = allocate_uncapacitated(prob, np.array([0, 1]))
    assert np.array_equal(got.y, want.y)


def test_single_center_overflow_is_infeasible():
    prob = matrix_problem([[1.0], [1.0], [1.0]], a=[2.0, 2.0, 2.0], capacity=(0.0, 5.0))
    with pytest.raises(Infeasible):
        allocate_hard(prob, np.array([0]))
    with pytest.raises(Infeasible):
        allocate_fractional(matrix_problem([[1.0], [1.0], [1.0]], a=[2.0] * 3,
                                           capacity=(0.0, 5.0), membership="fractional"),
                            np.array([0]))


def test_indivisible_exact_window_hard_infeasible_fractional_fine():
    # loads must hit exactly 4 per center but coefficients 3,3,2 cannot tile
    prob_hard = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0))
    with pytest.raises(Infeasible):
        allocate_hard(prob_hard, np.array([0, 1]))
    prob_frac = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0),
                               membership="fractional")
    got = allocate_fractional(prob_frac, np.array([0, 1]))
    loads = got.loads(prob_frac.capacity_coeffs)
    assert np.allclose(loads, 4.0, atol=1e-6)


def test_indivisible_window_hard_infeasible_is_silent(capfd):
    prob = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0))
    with pytest.raises(Infeasible):
        allocate_hard(prob, np.array([0, 1]))
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
    got = allocate_hard(prob, np.arange(5), time_budget=20.0)
    assert "fastpath" not in got.diagnostics
    assert "optimality_gap" not in got.diagnostics
    assert np.isin(got.y, (0.0, 1.0)).all()
    loads = got.loads(prob.capacity_coeffs)
    assert (loads >= 0.8 * mean_load - 1e-9).all() and (loads <= 1.2 * mean_load + 1e-9).all()


def test_infeasibility_certificates_mention_failing_bound():
    with pytest.raises(Infeasible, match="upper"):
        allocate_fractional(matrix_problem([[1.0]], a=[4.0], capacity=(0.0, 2.0),
                                           membership="fractional"), np.array([0]))
    with pytest.raises(Infeasible, match="lower"):
        allocate_fractional(matrix_problem([[1.0, 1.0]], a=[1.0], capacity=(3.0, 9.0),
                                           membership="fractional"), np.array([0, 1]))


def test_equal_coefficients_fast_path_detected():
    D = np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5], [0.5, 3.0]])
    prob = matrix_problem(D, a=[2.0] * 4, capacity=(2.0, 6.0))
    got = allocate_hard(prob, np.array([0, 1]))
    assert got.diagnostics.get("fastpath") == "lp_integral"
    assert np.isin(got.y, (0.0, 1.0)).all()


def test_zero_capacity_points_assigned_greedily():
    D = np.array([[1.0, 4.0], [9.0, 2.0]])
    prob = matrix_problem(D, a=[0.0, 3.0], w=[2.0, 1.0], capacity=(0.0, 3.0),
                          membership="fractional")
    got = allocate_fractional(prob, np.array([0, 1]))
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
            got = allocate_fractional(problem, centers)
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
            got = allocate_hard(problem, centers)
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
            hard = allocate_hard(problem, centers)
        except Infeasible:
            continue
        frac = allocate_fractional(problem, centers)
        assert objective_of(problem, frac, D) <= objective_of(problem, hard, D) + 1e-9


def test_coverage_greater_than_one_with_capacity():
    D = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])
    prob = matrix_problem(D, a=[1.0, 1.0], q=[2, 1], capacity=(0.0, 2.0))
    got = allocate_hard(prob, np.array([0, 1, 2]))
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
    got = allocate_hard(prob, np.array([0, 1]), time_budget=0.0)
    assert got.diagnostics.get("optimality_gap", 0.0) > 0.0
    assert objective_of(prob, got, AB_D) == pytest.approx(3.0, abs=1e-9)


def test_exhausted_budget_without_incumbent_raises():
    prob = matrix_problem([[1.0, 2.0]] * 3, a=[3.0, 3.0, 2.0], capacity=(4.0, 4.0))
    with pytest.raises((NoIncumbentWithinBudget, Infeasible)):
        allocate_hard(prob, np.array([0, 1]), time_budget=0.0)


def test_integral_coefficients_narrow_window_precheck():
    # integer loads cannot reach a fractional-only window
    prob = matrix_problem([[1.0, 2.0]] * 4, a=[1.0] * 4, capacity=(2.2, 2.8))
    with pytest.raises(Infeasible):
        allocate_hard(prob, np.array([0, 1]))


def test_dispatcher_routes_by_capacity_and_membership():
    D = np.array([[1.0, 2.0]])
    uncap = matrix_problem(D)
    assert allocate(uncap, np.array([0, 1])).y.tolist() == [[1.0, 0.0]]
    frac = matrix_problem(D, capacity=(0.0, 2.0), membership="fractional")
    assert allocate(frac, np.array([0, 1])).membership == "fractional"
    hard = matrix_problem(D, capacity=(0.0, 2.0), membership="hard")
    assert np.isin(allocate(hard, np.array([0, 1])).y, (0.0, 1.0)).all()
