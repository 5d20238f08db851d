import itertools

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import (
    CenterSpec, Point, Problem, allocate, matrix_metric, threshold, validate_problem,
)
from capclust.errors import FixedCenterNotCandidate, ShapeMismatch, ValidationError
from capclust.metrics import candidate_distances, distances_to_centers, geometric_distances


def test_manhattan_example():
    assert geometric_distances("manhattan", [(1, 2)], [(4, 6)]).tolist() == [[7.0]]


def test_three_four_five():
    assert geometric_distances("sqeuclidean", [(0, 0)], [(3, 4)]).tolist() == [[25.0]]
    assert geometric_distances("euclidean", [(0, 0)], [(3, 4)]).tolist() == [[5.0]]


def test_threshold_boundary_counts_as_outside():
    # Euclidean distance exactly 5 is not under the radius, so cost 1.
    point, site = np.array([(0.0, 0.0)]), np.array([(3.0, 4.0)])
    assert candidate_distances(threshold(5.0), point, site).tolist() == [[1.0]]
    assert candidate_distances(threshold(5.0 + 1e-9), point, site).tolist() == [[0.0]]


def test_threshold_needs_positive_radius():
    for radius in (0.0, "1", None):
        with pytest.raises(ValidationError):
            threshold(radius)


def test_matrix_lookup_and_range():
    # The matrix metric's costs are the matrix itself, read by point row and
    # site column; a problem whose indices fall outside it is refused.
    D = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = matrix_metric(D)
    assert candidate_distances(m, None, None)[1, 0] == 3.0
    points = (Point(0), Point(1))
    prob = validate_problem(Problem(points=points, metric=m, centers=CenterSpec(k=1, placement="discrete")))
    assert distances_to_centers(prob, [1]).tolist() == [[2.0], [4.0]]
    with pytest.raises(ShapeMismatch):
        validate_problem(Problem(points=points + (Point(2),), metric=m, centers=CenterSpec(k=1, placement="discrete")))
    with pytest.raises(FixedCenterNotCandidate):
        validate_problem(Problem(points=points, metric=m, centers=CenterSpec(k=1, placement="discrete", fixed=(5,))))


def test_matrix_rejects_negative_entries():
    with pytest.raises(ValidationError):
        matrix_metric([[1.0, -0.5]])


coords = st.tuples(st.floats(-100, 100), st.floats(-100, 100))


@given(coords, coords)
def test_geometric_symmetry_and_identity(p, q):
    for kind in ("sqeuclidean", "euclidean", "manhattan"):
        D = geometric_distances(kind, [p, q], [p, q])
        assert D[0, 0] == D[1, 1] == 0.0
        assert D[0, 1] == pytest.approx(D[1, 0], rel=1e-12, abs=1e-12)


@given(coords, coords, coords)
def test_triangle_inequality_euclidean_manhattan(p, q, r):
    for kind in ("euclidean", "manhattan"):
        D = geometric_distances(kind, [p, q], [q, r])
        dpq, dpr, dqr = D[0, 0], D[0, 1], D[1, 1]
        assert dpr <= dpq + dqr + 1e-9 * (1 + dpq + dqr)


def test_squared_euclidean_violates_triangle_inequality():
    # witness triple on a line: 4 > 1 + 1
    a, b, c = (0, 0), (1, 0), (2, 0)
    D = geometric_distances("sqeuclidean", [a, b], [b, c])
    assert D[0, 1] > D[0, 0] + D[1, 1]


@given(coords, coords)
def test_euclidean_squared_matches_sqeuclidean(p, q):
    d = geometric_distances("euclidean", [p], [q])[0, 0]
    d2 = geometric_distances("sqeuclidean", [p], [q])[0, 0]
    assert d * d == pytest.approx(d2, rel=1e-12, abs=1e-30)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_threshold_assignment_matches_coverage_enumeration(seed):
    # Minimizing the 0/1 threshold cost over k open sites is maximal coverage:
    # check against direct coverage counting on 5-point instances.
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 10, size=(5, 2))
    sites = rng.uniform(0, 10, size=(4, 2))
    radius = float(rng.uniform(1, 6))
    w = rng.uniform(0.5, 3.0, size=5)
    pts = [Point(i, coords=tuple(xy[i]), w=float(w[i])) for i in range(5)]
    prob = validate_problem(Problem(
        points=tuple(pts), metric=threshold(radius),
        centers=CenterSpec(k=2, placement="discrete", candidates=sites),
    ))
    euclid = geometric_distances("euclidean", xy, sites)
    best_cost = None
    for subset in itertools.combinations(range(4), 2):
        covered = (euclid[:, list(subset)] < radius).any(axis=1)
        cost = float(w[~covered].sum())
        if best_cost is None or cost < best_cost:
            best_cost = cost
    mine = min(
        float((prob.effective_weights[:, None] * distances_to_centers(prob, np.array(subset)) *
               allocate(prob, np.array(subset)).y).sum())
        for subset in itertools.combinations(range(4), 2)
    )
    assert mine == pytest.approx(best_cost, abs=1e-9)


def _broadcast_distances(kind, points, locations):
    """The (n, m, 2) broadcast formula that ``geometric_distances`` replaces."""
    diff = points[:, None, :] - locations[None, :, :]
    if kind == "manhattan":
        return np.abs(diff).sum(axis=2)
    sq = (diff * diff).sum(axis=2)
    return sq if kind == "sqeuclidean" else np.sqrt(sq)


@pytest.mark.parametrize("kind", ["sqeuclidean", "euclidean", "manhattan"])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (40, 1), (300, 25)])
def test_geometric_distances_equal_the_broadcast_formula_bit_for_bit(kind, n, m):
    rng = np.random.default_rng(n * 1000 + m)
    # coordinates over many magnitudes, so any change of rounding would show
    points = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
    locations = rng.normal(size=(m, 2)) * 10.0 ** rng.integers(-6, 7, size=(m, 1))
    got = geometric_distances(kind, points, locations)
    assert got.shape == (n, m)
    assert np.array_equal(got, _broadcast_distances(kind, points, locations))
