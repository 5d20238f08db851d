import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import (
    CenterSpec, Point, Problem, decide_release, euclidean, manhattan, sqeuclidean,
    update_center_continuous, update_center_discrete, validate_problem, weiszfeld,
)
from capclust.errors import EmptyCluster
from capclust.location import WEISZFELD_MAX_ITER, cluster_cost_continuous, weighted_lower_median
from oracles import grid_refine_median


def test_weighted_mean_example():
    got = update_center_continuous("sqeuclidean", np.array([[0.0, 0.0], [2.0, 0.0]]),
                                   np.array([1.0, 3.0]))
    assert np.allclose(got.coords, [1.5, 0.0])


def test_equilateral_triangle_median_is_centroid():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    got = update_center_continuous("euclidean", xy, np.ones(3))
    assert np.abs(got.coords - xy.mean(axis=0)).max() < 1e-6


def test_collinear_median_is_middle_point():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    got = update_center_continuous("euclidean", xy, np.ones(3))
    assert np.abs(got.coords - [1.0, 0.0]).max() < 1e-6


def test_manhattan_lower_median_on_ties():
    assert weighted_lower_median(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 0.0
    got = update_center_continuous("manhattan", np.array([[0.0, 5.0], [1.0, 7.0]]),
                                   np.array([1.0, 1.0]))
    assert got.coords.tolist() == [0.0, 5.0]


def test_empty_cluster_raises():
    with pytest.raises(EmptyCluster):
        update_center_continuous("sqeuclidean", np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(EmptyCluster):
        update_center_discrete(np.ones((2, 3)), np.zeros(2))


def test_discrete_medoid_example():
    # points and candidates at 0, 1, 5 on a line: weighted sums 6, 5, 9
    site_d = np.abs(np.array([0.0, 1.0, 5.0])[:, None] - np.array([0.0, 1.0, 5.0])[None, :])
    assert update_center_discrete(site_d, np.ones(3)) == 1


def test_discrete_single_point_picks_coincident_candidate():
    site_d = np.array([[2.0, 0.0, 3.0]])
    assert update_center_discrete(site_d, np.array([1.0])) == 1


def test_discrete_zero_cost_column_wins():
    site_d = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert update_center_discrete(site_d, np.ones(2)) == 1


def test_weiszfeld_close_to_grid_refinement():
    rng = np.random.default_rng(9)
    for _ in range(10):
        xy = rng.uniform(0, 10, size=(5, 2))
        masses = rng.uniform(0.5, 3.0, size=5)
        mine = weiszfeld(xy, masses)
        ref = grid_refine_median(xy, masses)
        my_cost = cluster_cost_continuous("euclidean", xy, masses, mine.coords)
        ref_cost = cluster_cost_continuous("euclidean", xy, masses, ref)
        assert my_cost <= ref_cost + 1e-4
        assert np.abs(mine.coords - ref).max() < 1e-3 or my_cost < ref_cost


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_update_never_increases_cluster_cost(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    xy = rng.uniform(-5, 5, size=(n, 2))
    masses = rng.uniform(0.1, 2.0, size=n)
    old = rng.uniform(-5, 5, size=2)
    for kind in ("sqeuclidean", "euclidean", "manhattan"):
        new = update_center_continuous(kind, xy, masses).coords
        before = cluster_cost_continuous(kind, xy, masses, old)
        after = cluster_cost_continuous(kind, xy, masses, new)
        assert after <= before + 1e-9 * max(1.0, before)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 50.0))
def test_mean_and_median_scale_equivariance(seed, s):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-3, 3, size=(6, 2))
    masses = rng.uniform(0.5, 2.0, size=6)
    for kind in ("sqeuclidean", "manhattan"):
        base = update_center_continuous(kind, xy, masses).coords
        scaled = update_center_continuous(kind, xy * s, masses).coords
        assert np.allclose(scaled, base * s, rtol=1e-9, atol=1e-12)


def test_weiszfeld_handles_coincident_optimum():
    # median sits exactly on the heavy data point
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    masses = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
    got = weiszfeld(xy, masses)
    assert got.converged
    assert np.abs(got.coords - [0.0, 0.0]).max() < 1e-9


def test_weiszfeld_returns_optimal_data_point_exactly():
    # the heavier point is optimal (pull 86 <= mass 87), but the fixed-point
    # iteration only closes in on it by a factor 86/87 per step
    xy = np.array([[0.3, 0.7], [1.9, -2.0]])
    got = weiszfeld(xy, np.array([87.0, 86.0]))
    assert got.converged
    assert got.coords.tolist() == [0.3, 0.7]
    assert got.iterations < 0.7 * WEISZFELD_MAX_ITER


def release_problem(release_penalty):
    return validate_problem(Problem(
        points=(Point(0, coords=(10.0, 0.0), w=1.0),), metric=euclidean(),
        centers=CenterSpec(k=1, fixed=((0.0, 0.0),), release_penalty=release_penalty),
    ))


def test_release_when_gain_beats_penalty():
    prob = release_problem(5.0)
    decision = decide_release(prob, (0.0, 0.0), np.array([[10.0, 0.0]]), np.array([1.0]), False)
    assert decision.released
    assert np.abs(np.asarray(decision.location) - [10.0, 0.0]).max() < 1e-9


def test_keep_when_penalty_too_high():
    prob = release_problem(15.0)
    decision = decide_release(prob, (0.0, 0.0), np.array([[10.0, 0.0]]), np.array([1.0]), False)
    assert not decision.released


def test_boundary_gain_keeps_fixed():
    prob = release_problem(10.0)  # gain is exactly the penalty
    decision = decide_release(prob, (0.0, 0.0), np.array([[10.0, 0.0]]), np.array([1.0]), False)
    assert not decision.released


def test_released_center_reattaches_when_gain_drops():
    prob = release_problem(5.0)
    # now the mass sits right next to the fixed spot: gain ~ 1 < 5
    decision = decide_release(prob, (0.0, 0.0), np.array([[1.0, 0.0]]), np.array([1.0]), True)
    assert not decision.released
    assert np.allclose(np.asarray(decision.location), [0.0, 0.0])


def test_released_center_stays_at_boundary_gain():
    prob = release_problem(10.0)
    decision = decide_release(prob, (0.0, 0.0), np.array([[10.0, 0.0]]), np.array([1.0]), True)
    assert decision.released  # reattach needs gain strictly below the penalty


def test_infinite_penalty_never_releases():
    prob = release_problem(np.inf)
    decision = decide_release(prob, (0.0, 0.0), np.array([[100.0, 0.0]]), np.array([5.0]), False)
    assert not decision.released
