import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import (
    Assignment, CenterSpec, Point, Problem, Solution, adjusted_rand_index,
    distance_summary, euclidean, validate_problem,
)
from capclust.errors import LengthMismatch
from capclust.model import evaluate_parts
from oracles import pair_count_ari


def test_identical_partitions_give_exactly_one():
    assert adjusted_rand_index([1, 1, 2, 2, 3], [1, 1, 2, 2, 3]) == 1.0


def test_label_permutation_invariance():
    assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0


def test_example_pair_counting_value():
    a = [1, 1, 1, 2, 2, 2]
    b = [1, 1, 2, 2, 3, 3]
    assert adjusted_rand_index(a, b) == pytest.approx(pair_count_ari(a, b), abs=1e-12)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        adjusted_rand_index([1, 2], [1, 2, 3])


def test_degenerate_partitions():
    assert adjusted_rand_index([1, 1, 1], [1, 1, 1]) == 1.0
    assert adjusted_rand_index([1, 2, 3], [4, 5, 6]) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=14),
       st.lists(st.integers(0, 4), min_size=2, max_size=14))
def test_matches_pair_counting_and_symmetry(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    got = adjusted_rand_index(a, b)
    assert got == pytest.approx(pair_count_ari(a, b), abs=1e-12)
    assert got == pytest.approx(adjusted_rand_index(b, a), abs=1e-12)
    assert -1.0 <= got <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=12), st.permutations(list(range(4))))
def test_relabeling_either_side_preserves_value(labels, perm):
    relabeled = [perm[v] for v in labels]
    other = [(v * 7 + 1) % 3 for v in range(len(labels))]
    assert adjusted_rand_index(labels, other) == pytest.approx(
        adjusted_rand_index(relabeled, other), abs=1e-12)
    assert adjusted_rand_index(relabeled, labels) == 1.0


def solved_instance(xy, w, centers, y, membership="hard", lam=None):
    pts = tuple(Point(i, coords=tuple(xy[i]), w=float(w[i])) for i in range(len(xy)))
    prob = validate_problem(Problem(points=pts, metric=euclidean(),
                                    centers=CenterSpec(k=len(centers)),
                                    membership=membership, outlier_penalty=lam))
    assignment = Assignment(y=np.asarray(y, dtype=float), has_outlier=lam is not None)
    objective = evaluate_parts(prob, np.asarray(centers, dtype=float), assignment, frozenset())
    return prob, Solution(centers=np.asarray(centers, dtype=float), assignment=assignment,
                          released=frozenset(), objective=objective)


def test_coincident_points_summary_zero():
    xy = np.array([[1.0, 1.0], [2.0, 2.0]])
    prob, sol = solved_instance(xy, [1, 1], xy, np.eye(2))
    s = distance_summary(prob, sol)
    assert s == {"mean": 0.0, "median": 0.0, "q95": 0.0}


def test_two_point_summary():
    xy = np.array([[1.0, 0.0], [3.0, 0.0]])
    prob, sol = solved_instance(xy, [1, 1], np.array([[0.0, 0.0]]), [[1.0], [1.0]])
    s = distance_summary(prob, sol)
    assert s["mean"] == 2.0
    assert s["median"] == 2.0


def test_per_demand_mean_matches_distance_term_over_total_weight():
    rng = np.random.default_rng(44)
    xy = rng.uniform(0, 5, size=(10, 2))
    w = rng.uniform(0.5, 3, size=10)
    centers = rng.uniform(0, 5, size=(3, 2))
    y = np.zeros((10, 3))
    y[np.arange(10), rng.integers(0, 3, size=10)] = 1.0
    prob, sol = solved_instance(xy, w, centers, y)
    s = distance_summary(prob, sol, weighting="per_demand")
    assert s["mean"] == pytest.approx(sol.objective.distance_term / w.sum(), rel=1e-12)


def test_fractional_uses_membership_weighted_distance_and_drops_pure_outliers():
    xy = np.array([[0.0, 0.0], [4.0, 0.0]])
    centers = np.array([[1.0, 0.0], [3.0, 0.0]])
    y = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    prob, sol = solved_instance(xy, [1, 1], centers, y, membership="fractional", lam=1.0)
    s = distance_summary(prob, sol)
    assert s["mean"] == pytest.approx(2.0)  # (0.5*1 + 0.5*3) / 1
    assert s["median"] == pytest.approx(2.0)


def test_per_point_quantile_is_type7():
    xy = np.array([[float(i), 0.0] for i in range(1, 6)])
    prob, sol = solved_instance(xy, np.ones(5), np.array([[0.0, 0.0]]), np.ones((5, 1)))
    s = distance_summary(prob, sol)
    assert s["q95"] == pytest.approx(np.quantile([1, 2, 3, 4, 5], 0.95))
