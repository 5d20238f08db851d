import math

import numpy as np
import pytest

from capclust import (
    CenterSpec, Point, Problem, SolverConfig, aic_bic_lambda, sqeuclidean, sweep_k,
    validate_problem,
)
from capclust.errors import NonpositiveVariance


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
