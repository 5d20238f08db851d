import math

import numpy as np
import pytest

from capclust import (
    CenterSpec, Point, Problem, SolverConfig, aic_bic_lambda, euclidean, matrix_metric, solve,
    sqeuclidean, sweep_k, validate_problem,
)
from capclust.errors import NonpositiveVariance, ValidationError


def paired_blobs(rng, centers, per=6, sigma=0.15):
    pts = []
    for cx, cy in centers:
        for _ in range(per):
            x, y = rng.normal([cx, cy], sigma)
            pts.append(Point(len(pts), coords=(x, y)))
    return tuple(pts)


@pytest.fixture(scope="module")
def small_report():
    rng = np.random.default_rng(31)
    pts = paired_blobs(rng, [(0, 0), (5, 0), (2.5, 4.0)])
    prob = validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=1)))
    return sweep_k(prob, range(1, 5), [0.0, 1.0, 5.0, 50.0], SolverConfig(restarts=8, rng_seed=0))


def test_penalized_values_are_base_plus_lambda_k(small_report):
    report = small_report
    for lam, values in report.penalized.items():
        for k, v in values.items():
            assert v == report.base_objectives[k] + lam * k


def test_zero_penalty_argmin_is_smallest_base(small_report):
    report = small_report
    best = min(report.base_objectives, key=lambda k: (report.base_objectives[k], k))
    assert report.argmin_k[0.0] == best


def test_base_objective_non_increasing_without_lower_limit(small_report):
    ks = sorted(small_report.base_objectives)
    vals = [small_report.base_objectives[k] for k in ks]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_argmin_weakly_decreasing_in_lambda(small_report):
    lams = sorted(small_report.argmin_k)
    picks = [small_report.argmin_k[lam] for lam in lams]
    assert all(a >= b for a, b in zip(picks, picks[1:]))


def test_consensus_is_modal_argmin(small_report):
    votes = {}
    for k in small_report.argmin_k.values():
        votes[k] = votes.get(k, 0) + 1
    assert small_report.consensus_k == min(votes, key=lambda k: (-votes[k], k))


def test_sweep_records_infeasible_k_without_failing():
    # lower limit 30 with total capacity mass 18 is unreachable at k >= 1
    rng = np.random.default_rng(32)
    pts = paired_blobs(rng, [(0, 0), (5, 0), (2.5, 4.0)])
    prob = validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=1),
                                    membership="fractional", capacity=(8.0, 30.0)))
    report = sweep_k(prob, range(1, 5), [0.0], SolverConfig(restarts=4, rng_seed=0))
    assert 1 in report.base_objectives  # 18 mass fits one center within [8, 30]
    assert 3 in report.errors or 4 in report.errors  # k*L outgrows the total mass
    assert report.consensus_k in report.base_objectives


@pytest.mark.parametrize("grid", [[math.nan, 1.0], [math.inf], [-5.0], [0.0, 2.0, -1e-9]])
def test_lambda_grid_outside_the_opening_penalty_range_fails_before_solving(monkeypatch, grid):
    from capclust import selection

    calls = []
    monkeypatch.setattr(selection, "solve", lambda *a: calls.append(a))
    prob = validate_problem(Problem(points=paired_blobs(np.random.default_rng(34), [(0, 0), (5, 0)]),
                                    metric=sqeuclidean(), centers=CenterSpec(k=1)))
    with pytest.raises(ValidationError, match="lambda grid"):
        sweep_k(prob, range(1, 4), grid, SolverConfig(restarts=1))
    assert calls == []


@pytest.mark.parametrize("k_range, grid, match", [
    ([2.5, 3], [0.0], "k_range"), ([True, 3], [0.0], "k_range"), ([1, True], [0.0], "k_range"),
    (["a"], [0.0], "k_range"), ([2], ["x"], "lambda grid"), ([2], ["1.5"], "lambda grid"),
], ids=["k-float", "k-bool", "k-bool-after-one", "k-string", "lambda-string", "lambda-numeric-string"])
def test_non_integer_k_or_non_real_penalty_fails_before_solving(monkeypatch, k_range, grid, match):
    from capclust import selection

    calls = []
    monkeypatch.setattr(selection, "solve", lambda *a: calls.append(a))
    prob = validate_problem(Problem(points=paired_blobs(np.random.default_rng(35), [(0, 0), (5, 0)]),
                                    metric=sqeuclidean(), centers=CenterSpec(k=1)))
    with pytest.raises(ValidationError, match=match):
        sweep_k(prob, k_range, grid, SolverConfig(restarts=1))
    assert calls == []


def test_numpy_k_values_and_penalties_are_accepted():
    prob = validate_problem(Problem(points=paired_blobs(np.random.default_rng(36), [(0, 0), (5, 0)]),
                                    metric=sqeuclidean(), centers=CenterSpec(k=1)))
    report = sweep_k(prob, np.arange(1, 3), [np.float64(0.5), 1], SolverConfig(restarts=1))
    assert report.k_values == [1, 2] and all(type(k) is int for k in report.k_values)
    assert list(report.penalized) == [0.5, 1.0]


def test_first_differences_reports_drops(small_report):
    diffs = small_report.first_differences()
    ks = sorted(small_report.base_objectives)
    for k1, k2 in zip(ks, ks[1:]):
        assert diffs[k2] == small_report.base_objectives[k2] - small_report.base_objectives[k1]


def test_aic_lambda_is_four_sigma_squared():
    lam_aic, _ = aic_bic_lambda(1.0, 7)
    assert lam_aic == 4.0
    lam_aic2, _ = aic_bic_lambda(2.5, 100)
    assert lam_aic2 == 10.0


def test_bic_lambda_formula():
    _, lam_bic = aic_bic_lambda(2.0, 10)
    assert lam_bic == pytest.approx(2.0 * math.log(10) * 2.0, rel=1e-15)
    assert lam_bic == pytest.approx(9.2103, abs=5e-5)


def test_nonpositive_variance_rejected():
    with pytest.raises(NonpositiveVariance):
        aic_bic_lambda(0.0, 10)
    with pytest.raises(NonpositiveVariance):
        aic_bic_lambda(-1.0, 10)


@pytest.mark.parametrize("sites_metric", ["matrix", "euclidean", "continuous"])
def test_sweep_shares_k_independent_data_and_matches_standalone_solves(monkeypatch, sites_metric):
    from capclust import metrics, selection

    rng = np.random.default_rng(33)
    xy = rng.uniform(0.0, 10.0, size=(60, 2))
    w = rng.uniform(1.0, 4.0, size=60)
    sites = rng.uniform(0.0, 10.0, size=(9, 2))
    costs = np.hypot(*(xy[:, None, :] - sites[None, :, :]).transpose(2, 0, 1)) * rng.uniform(1.0, 1.5, (60, 9))

    def fresh(k):
        """A problem built from scratch, sharing nothing with any other."""
        pts = tuple(Point(i, coords=tuple(xy[i]), w=float(w[i])) for i in range(60))
        if sites_metric == "matrix":
            return Problem(points=pts, metric=matrix_metric(costs.copy()),
                           centers=CenterSpec(k=k))
        if sites_metric == "continuous":  # squared Euclidean without candidate sites
            return Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=k))
        return Problem(points=pts, metric=euclidean(),
                       centers=CenterSpec(k=k, candidates=sites.copy(),
                                          fixed=(4,), release_penalty=5.0))

    config = SolverConfig(restarts=3, rng_seed=6)
    problem = validate_problem(fresh(2))
    cost_calls, trials = [], []
    real_costs, real_solve = metrics.candidate_distances, selection.solve
    monkeypatch.setattr(metrics, "candidate_distances", lambda *a: cost_calls.append(a) or real_costs(*a))
    monkeypatch.setattr(selection, "solve", lambda p, c, **kw: trials.append((p, kw)) or real_solve(p, c, **kw))
    report = sweep_k(problem, range(2, 7), [0.0, 50.0], config)
    monkeypatch.undo()

    discrete = sites_metric != "continuous"
    assert len(cost_calls) == discrete
    assert [t.k for t, _ in trials] == [2, 3, 4, 5, 6]
    # Every k is handed the same lockstep groups of draw sequences, one sequence per restart.
    sequences = trials[0][1]["sequences"]
    assert sum(len(group.rngs) for group in sequences) == config.restarts
    for trial, kw in trials:
        assert list(kw) == ["sequences"] and kw["sequences"] is sequences
        assert trial.shared is problem.shared
        assert not discrete or trial.site_costs is problem.site_costs
        assert trial.effective_weights is problem.effective_weights and trial.id_order is problem.id_order
    for k in range(2, 7):
        assert report.base_objectives[k] == solve(fresh(k), config).objective.total
