import math
from dataclasses import replace

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import (
    Assignment, CenterSpec, Point, PointTable, Problem, Solution, SolverConfig, allocate, euclidean,
    matrix_metric, solve, sqeuclidean, threshold, validate_problem,
)
from capclust.errors import (
    CapacityWindowInverted, FixedCenterNotCandidate, KTooSmall, NegativeWeight,
    ShapeMismatch, ThresholdRequiresDiscrete, ValidationError,
)
from capclust.model import ObjectiveBreakdown, evaluate_parts


def make_solution(problem, centers, y, released=frozenset()):
    assignment = Assignment(y=np.asarray(y, dtype=float), has_outlier=problem.has_outlier_column)
    objective = evaluate_parts(problem, centers, assignment, released)
    return Solution(centers=np.asarray(centers), assignment=assignment,
                    released=frozenset(released), objective=objective)


def test_points_without_coordinates_read_back_as_given():
    pts = (Point(5, w=3.0), Point(2, coords=(1, 2), w=2.0, gamma=0.5, q=2))
    prob = Problem(points=pts, metric=matrix_metric([[1.0], [2.0]]), centers=CenterSpec(k=1))
    assert isinstance(prob.points, PointTable) and prob.points == PointTable.of(pts)
    assert list(prob.points) == list(pts) and prob.points[-1] == pts[1]
    assert prob.points[0].coords is None and prob.points[1].coords == (1.0, 2.0)
    assert prob.coords is None
    assert prob.ids.tolist() == [5, 2] and prob.id_order.tolist() == [1, 0]
    assert prob.effective_weights.tolist() == [3.0, 2.5] and prob.coverages.tolist() == [1, 2]
    # A table is kept as it is, and a replaced problem keeps its arrays.
    again = replace(prob, opening_penalty=1.0)
    assert again.points is prob.points and again.shared is prob.shared
    located = Problem(points=pts[1:], metric=sqeuclidean(), centers=CenterSpec(k=1))
    assert located.coords.tolist() == [[1.0, 2.0]]
    assert located.points != prob.points and not located.coords.flags.writeable


def test_inverted_capacity_window():
    with pytest.raises(CapacityWindowInverted):
        validate_problem(Problem(
            points=(Point(0, coords=(0, 0)),), metric=sqeuclidean(),
            centers=CenterSpec(k=1), capacity=(3.0, 2.0),
        ))


def test_threshold_requires_discrete():
    with pytest.raises(ThresholdRequiresDiscrete):
        validate_problem(Problem(
            points=(Point(0, coords=(0, 0)),), metric=threshold(1.0),
            centers=CenterSpec(k=1),
        ))


def test_placement_follows_from_the_candidates_and_the_metric():
    pts = (Point(0, coords=(0, 0)), Point(1, coords=(3, 0)), Point(2, coords=(0, 2)))
    sites = [[0.0, 0.0], [3.0, 0.0], [1.0, 1.0]]
    on_sites = Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=2, candidates=sites))
    assert on_sites.placement == "discrete"
    solution = solve(on_sites, SolverConfig(restarts=2, rng_seed=0))
    assert solution.centers.dtype.kind == "i" and set(solution.centers) <= {0, 1, 2}
    by_matrix = Problem(points=pts, metric=matrix_metric(np.ones((3, 2))), centers=CenterSpec(k=2))
    assert by_matrix.placement == "discrete"
    assert Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=2)).placement == "continuous"
    with pytest.raises(TypeError):
        CenterSpec(k=2, placement="discrete")


def test_penalty_terms_that_overflow_are_rejected():
    # An infinite constant term makes every restart total inf, and the tie rule then picks restart 0.
    pts = tuple(Point(i, coords=(float(i), 0.0)) for i in range(6))

    def problem(k, opening=0.0, fixed=(), release=math.inf):
        return Problem(points=pts, metric=sqeuclidean(), opening_penalty=opening,
                       centers=CenterSpec(k=k, fixed=fixed, release_penalty=release))

    validate_problem(problem(1, opening=1e308))
    with pytest.raises(ValidationError, match="opening penalty .* overflows"):
        validate_problem(problem(4, opening=1e308))
    validate_problem(problem(2, fixed=((0.0, 0.0),), release=1e308))
    with pytest.raises(ValidationError, match="release penalty .* overflows"):
        validate_problem(problem(2, fixed=((0.0, 0.0), (3.0, 0.0)), release=1e308))


def test_a_problem_without_points_is_rejected():
    with pytest.raises(ValidationError, match="at least one point"):
        validate_problem(Problem(points=(), metric=sqeuclidean(), centers=CenterSpec(k=1)))


WRONG_TYPED = {
    "k-float": dict(centers=CenterSpec(k=2.5)), "k-whole-float": dict(centers=CenterSpec(k=3.0)),
    "k-bool": dict(centers=CenterSpec(k=True)), "capacity-one": dict(capacity=(1,)),
    "capacity-strings": dict(capacity=("1", "9")), "capacity-none": dict(capacity=(0, None)),
    "capacity-scalar": dict(capacity=5), "outlier-string": dict(outlier_penalty="1"),
    "opening-string": dict(opening_penalty="0"),
    "release-string": dict(centers=CenterSpec(k=2, fixed=((0.0, 0.0),), release_penalty="inf")),
}


@pytest.mark.parametrize("fields", WRONG_TYPED.values(), ids=WRONG_TYPED.keys())
def test_wrong_typed_fields_raise_validation_error(fields):
    pts = tuple(Point(i, coords=(float(i), float(i % 3))) for i in range(6))
    problem = Problem(**{"points": pts, "metric": sqeuclidean(), "centers": CenterSpec(k=2), **fields})
    with pytest.raises(ValidationError):
        solve(problem, SolverConfig(restarts=1))


def test_numpy_integer_k_and_window_solve():
    pts = tuple(Point(i, coords=(float(i), float(i % 3))) for i in range(6))
    problem = Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=np.int64(2)),
                      membership="fractional", capacity=np.array([2.0, 4.0]))
    assert solve(problem, SolverConfig(restarts=1)).centers.shape == (2, 2)


def test_continuous_k_beyond_the_points_is_rejected():
    # k-means++ draws each free seed from the points: two points seed at most
    # two free centers, whatever the fixed ones, as two sites host at most two.
    pts = (Point(0, coords=(0, 0)), Point(1, coords=(1, 0)))
    fixed = ((5.0, 5.0),)
    validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=2)))
    validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=3, fixed=fixed)))
    for k, spec_fixed in ((3, ()), (4, fixed), (10**20, ())):
        with pytest.raises(ValidationError, match="2 points cannot seed"):
            validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=k, fixed=spec_fixed)))


def test_valid_instance_materializes_effective_weights():
    pts = (Point(0, coords=(0, 0), w=1.0, gamma=0.5),
           Point(1, coords=(1, 0), w=2.0),
           Point(2, coords=(0, 1), w=0.0, gamma=3.0, a=0.0, pseudo=True))
    prob = validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=1)))
    assert np.array_equal(prob.effective_weights, [1.5, 2.0, 3.0])
    assert prob.points[0].effective_weight == 1.5


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        validate_problem(Problem(points=(Point(0, coords=(0, 0), w=-1.0),),
                                 metric=sqeuclidean(), centers=CenterSpec(k=1)))


@pytest.mark.parametrize("point", [
    Point(3, coords=(math.nan, 0.0)),
    Point(3, coords=(0.0, math.inf)),
    Point(3, coords=(0.0, 0.0), w=math.nan),
    Point(3, coords=(0.0, 0.0), w=math.inf),
    Point(3, coords=(0.0, 0.0), gamma=math.nan),
    Point(3, coords=(0.0, 0.0), a=-math.inf),
])
def test_non_finite_point_values_rejected(point):
    pts = (Point(1, coords=(1.0, 1.0)), point)
    with pytest.raises(ValidationError, match="point 3: .* must be finite"):
        validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=1)))


@pytest.mark.parametrize("field, value", [
    ("capacity", (math.nan, 5.0)),
    ("capacity", (math.inf, math.inf)),
    ("capacity", (0.0, math.nan)),
    ("outlier_penalty", math.nan),
    ("outlier_penalty", math.inf),
    ("opening_penalty", math.nan),
    ("opening_penalty", math.inf),
])
def test_non_finite_problem_values_rejected(field, value):
    base = Problem(points=(Point(0, coords=(0.0, 0.0)),), metric=sqeuclidean(), centers=CenterSpec(k=1))
    with pytest.raises(ValidationError):
        validate_problem(replace(base, **{field: value}))


def _far_site_problem():
    pts = (Point(0, coords=(0.0, 0.0)), Point(1, coords=(1.0, 0.0)))
    return Problem(points=pts, metric=euclidean(),
                   centers=CenterSpec(k=1, candidates=[[0.0, 0.0], [1e160, 0.0]]))


@pytest.mark.parametrize("make", [
    # The weights alone sum past the largest float.
    lambda: Problem(points=tuple(Point(i, coords=(float(i), 0.0), w=1.5e308) for i in range(2)),
                    metric=sqeuclidean(), centers=CenterSpec(k=1)),
    # The weights sum to a finite number, but w' * d^2 overflows at d = 100^2.
    lambda: Problem(points=(Point(0, coords=(0.0, 0.0), w=1e306), Point(1, coords=(100.0, 0.0), w=1e306)),
                    metric=sqeuclidean(), centers=CenterSpec(k=2)),
    lambda: Problem(points=(Point(0, w=1e300), Point(1, w=1e300)), metric=matrix_metric([[0.0, 1e5], [1e5, 0.0]]),
                    centers=CenterSpec(k=2)),
    # Two close points, but a candidate site far from both.
    _far_site_problem,
], ids=["weight-sum", "weight-times-distance", "matrix", "far-site"])
def test_seeding_masses_that_overflow_are_rejected(make):
    with pytest.raises(ValidationError, match="not finite"):
        validate_problem(make())


def test_huge_finite_weights_still_solve():
    from capclust import SolverConfig, solve

    rng = np.random.default_rng(4)
    pts = tuple(Point(i, coords=tuple(rng.uniform(0.0, 100.0, 2)), w=1e100) for i in range(20))
    problem = validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=3)))
    solution = solve(problem, SolverConfig(restarts=2, rng_seed=0))
    assert math.isfinite(solution.objective.total) and solution.objective.total > 0


def test_nan_release_penalty_rejected():
    with pytest.raises(ValidationError):
        validate_problem(Problem(points=(Point(0, coords=(0.0, 0.0)),), metric=sqeuclidean(),
                                 centers=CenterSpec(k=1, fixed=((0.0, 0.0),), release_penalty=math.nan)))


def _loop_point_error(points):
    """The per-point checks as a loop: (error type, message) of the first failure, or None."""
    for p in points:
        if not all(math.isfinite(v) for v in (*p.coords, p.w, p.gamma, p.a)):
            return ValidationError, f"point {p.id}: coordinates, w, gamma and a must be finite"
        if p.w < 0 or p.gamma < 0 or p.a < 0:
            return NegativeWeight, f"point {p.id}: w, gamma and a must be nonnegative"
        if p.q < 1:
            return ValidationError, f"point {p.id}: coverage q must be at least 1"
        if p.pseudo and (p.w != 0 or p.a != 0):
            return ValidationError, f"pseudo point {p.id} must have w = 0 and a = 0"
    seen = set()
    for pid in sorted(p.id for p in points):
        if pid in seen:
            return ValidationError, f"point ids must be unique (id {pid} repeats)"
        seen.add(pid)
    return None


def test_point_checks_match_loop_reference():
    rng = np.random.default_rng(11)
    defects = [
        {}, {"w": -1.0}, {"gamma": -0.5}, {"a": -2.0}, {"q": 0}, {"w": math.nan}, {"a": math.inf},
        {"coords": (math.nan, 0.0)}, {"pseudo": True}, {"pseudo": True, "w": 0.0, "a": 0.0, "gamma": 1.0},
    ]
    for _ in range(300):
        n = int(rng.integers(1, 7))
        ids = rng.integers(0, 2 * n, size=n) if rng.random() < 0.3 else rng.permutation(n)
        pts = []
        for i in range(n):
            fields = {"coords": (float(i), 0.0), "w": 1.0}
            if rng.random() < 0.3:
                fields.update(defects[int(rng.integers(len(defects)))])
            pts.append(Point(int(ids[i]), **fields))
        want = _loop_point_error(pts)
        problem = Problem(points=tuple(pts), metric=sqeuclidean(), centers=CenterSpec(k=1))
        if want is None:
            validate_problem(problem)
            continue
        with pytest.raises(want[0]) as info:
            validate_problem(problem)
        assert str(info.value) == want[1]


def test_pseudo_point_must_carry_no_demand():
    with pytest.raises(ValidationError):
        validate_problem(Problem(points=(Point(0, coords=(0, 0), w=1.0, pseudo=True),),
                                 metric=sqeuclidean(), centers=CenterSpec(k=1)))


def test_k_smaller_than_fixed_centers():
    with pytest.raises(KTooSmall):
        validate_problem(Problem(
            points=(Point(0, coords=(0, 0)),), metric=sqeuclidean(),
            centers=CenterSpec(k=1, fixed=((0.0, 0.0), (1.0, 1.0))),
        ))


def test_fixed_center_must_be_candidate_site():
    with pytest.raises(FixedCenterNotCandidate):
        validate_problem(Problem(
            points=(Point(0, coords=(0, 0)),), metric=sqeuclidean(),
            centers=CenterSpec(k=1, candidates=[[0.0, 0.0], [1.0, 0.0]], fixed=((0.5, 0.5),)),
        ))


def test_fixed_coordinates_resolve_to_site_indices():
    prob = validate_problem(Problem(
        points=(Point(0, coords=(0, 0)),), metric=sqeuclidean(),
        centers=CenterSpec(k=1, candidates=[[0.0, 0.0], [1.0, 0.0]], fixed=((1.0, 0.0),)),
    ))
    assert prob.centers.fixed == (1,)


BAD_PAIRS = {"one-number": (1.0,), "three-numbers": (1, 2, 3), "nan": (math.nan, 0.0), "inf": (0.0, math.inf),
             "none": None, "site-index": 1, "text": "ab"}


@pytest.mark.parametrize("placement, fixed", [
    *(("continuous", pair) for pair in BAD_PAIRS.values()),
    # a number or a text is read as a site index under discrete placement
    *(("discrete", pair) for name, pair in BAD_PAIRS.items() if name not in ("site-index", "text")),
], ids=[*(f"continuous-{name}" for name in BAD_PAIRS),
        *(f"discrete-{name}" for name in BAD_PAIRS if name not in ("site-index", "text"))])
def test_fixed_coordinates_must_be_a_finite_pair(placement, fixed):
    kw = {"candidates": [[0.0, 0.0], [1.0, 0.0]]} if placement == "discrete" else {}
    with pytest.raises(ValidationError, match="pair of finite numbers"):
        validate_problem(Problem(points=(Point(0, coords=(0, 0)),), metric=sqeuclidean(),
                                 centers=CenterSpec(k=1, fixed=(fixed,), **kw)))


@pytest.mark.parametrize("candidates", [[[0.0, 0.0], [1.0, 0.0]], [[0.0], [1.0], [2.0]]],
                         ids=["too-few-rows", "one-column"])
def test_matrix_candidates_must_match_the_columns(candidates):
    def problem(candidates):
        return Problem(points=(Point(0), Point(1)), metric=matrix_metric([[1, 2, 3], [4, 5, 6]]),
                       centers=CenterSpec(k=2, candidates=candidates))

    validate_problem(problem([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        validate_problem(problem(candidates))


def _site_problem(fixed=(), candidates=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))):
    return Problem(points=(Point(0, coords=(0.0, 0.0)), Point(1, coords=(2.0, 0.0))), metric=euclidean(),
                   centers=CenterSpec(k=1, candidates=candidates, fixed=fixed))


@pytest.mark.parametrize("site", [1.5, "ab", math.nan, math.inf, 10**400],
                         ids=["fraction", "text", "nan", "inf", "huge"])
def test_discrete_fixed_site_must_be_a_whole_number(site):
    # 1.5 used to be truncated to site 1, and "ab" ended in a raw ValueError
    with pytest.raises(FixedCenterNotCandidate, match="not a site index"):
        validate_problem(_site_problem(fixed=(site,)))


@pytest.mark.parametrize("site", [1, np.int64(1), 1.0, np.float64(1.0)])
def test_discrete_fixed_site_given_as_a_whole_number_is_accepted(site):
    assert validate_problem(_site_problem(fixed=(site,))).centers.fixed == (1,)


@pytest.mark.parametrize("candidates, error", [
    (np.zeros((2, 3)), ShapeMismatch),
    (np.array([0.0, 1.0]), ShapeMismatch),
    (np.zeros((2, 2, 2)), ShapeMismatch),
    (np.array([[0.0, 0.0], [math.nan, 1.0]]), ValidationError),
    (np.array([[0.0, 0.0], [math.inf, 1.0]]), ValidationError),
], ids=["three-columns", "flat", "three-dimensional", "nan", "inf"])
def test_geometric_candidate_sites_must_be_finite_pairs(candidates, error):
    # a (2, 3) array ended in a raw numpy ValueError, and a flat one was solved
    with pytest.raises(error):
        validate_problem(_site_problem(candidates=candidates))
    with pytest.raises(error):
        solve(_site_problem(candidates=candidates), SolverConfig(restarts=1))


@pytest.mark.parametrize("centers", [
    CenterSpec(k=2),
    CenterSpec(k=2, fixed=(np.array([1, 0]),)),
    CenterSpec(k=2, candidates=[[0.0, 0.0], [1.0, 0.0]], fixed=((1.0, 0.0),)),
])
def test_validating_a_validated_problem_returns_it(centers):
    points = (Point(0, coords=(0, 0)), Point(1, coords=(2, 1)))
    prob = validate_problem(Problem(points=points, metric=sqeuclidean(), centers=centers))
    prob.coords  # a cached array that a copy would have to rebuild
    assert validate_problem(prob) is prob
    assert "coords" in vars(prob)


SHARED_VALUES = ("coords", "weights", "gammas", "effective_weights", "capacity_coeffs", "coverages",
                 "pseudo_mask", "ids", "id_order", "diameter", "site_costs", "site_cost_columns", "nearest_site")


def test_replace_rebuilds_shared_values_only_when_the_data_changes():
    rng = np.random.default_rng(5)
    pts = tuple(Point(i, coords=tuple(rng.uniform(0.0, 5.0, 2)), w=float(rng.uniform(1.0, 3.0)))
                for i in range(8))
    sites = rng.uniform(0.0, 5.0, size=(4, 2))
    spec = CenterSpec(k=2, candidates=sites)
    prob = validate_problem(Problem(points=pts, metric=euclidean(), centers=spec))
    costs = prob.site_costs
    columns = prob.site_cost_columns
    assert np.array_equal(columns, costs)
    assert columns.flags.f_contiguous and not columns.flags.writeable

    bad = replace(prob, points=pts[:-1] + (Point(7, coords=(math.nan, 0.0)),))
    with pytest.raises(ValidationError, match="point 7: .* must be finite"):
        validate_problem(bad)
    assert bad.weights is not prob.weights

    assert not np.array_equal(replace(prob, metric=sqeuclidean()).site_costs, costs)
    moved = replace(prob, centers=replace(spec, candidates=sites + 1.0))
    assert not np.array_equal(moved.site_costs, costs)

    same = replace(prob, capacity=(0.0, 10.0), centers=replace(spec, k=3))
    for name in SHARED_VALUES:
        assert getattr(same, name) is getattr(prob, name), name


def test_point_checks_run_once_per_shared_set(monkeypatch):
    from capclust import model

    calls = []
    real = model._validate_points
    monkeypatch.setattr(model, "_validate_points", lambda p: calls.append(p) or real(p))
    pts = (Point(0, coords=(0.0, 0.0)), Point(1, coords=(2.0, 1.0)))
    prob = validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=1)))
    validate_problem(replace(prob, centers=CenterSpec(k=2), opening_penalty=1.0))
    validate_problem(prob)
    assert len(calls) == 1
    validate_problem(replace(prob, points=pts[:1]))
    assert len(calls) == 2


def test_single_point_objective():
    prob = validate_problem(Problem(points=(Point(0, coords=(0.0, 0.0), w=2.0),),
                                    metric=euclidean(), centers=CenterSpec(k=1)))
    sol = make_solution(prob, np.array([[3.0, 0.0]]), [[1.0]])
    assert sol.objective.total == 6.0


def test_fully_outlier_point_costs_lambda_times_weight():
    prob = validate_problem(Problem(points=(Point(0, coords=(0.0, 0.0), w=2.0),),
                                    metric=euclidean(), centers=CenterSpec(k=1),
                                    outlier_penalty=5.0))
    sol = make_solution(prob, np.array([[3.0, 0.0]]), [[0.0, 1.0]])
    assert sol.objective.outlier_term == 10.0
    assert sol.objective.total == 10.0


def test_split_membership_objective_terms():
    # one unit-weight point split half/half between centers at distances 1 and 3
    D = np.array([[1.0, 3.0]])
    prob = validate_problem(Problem(points=(Point(0, w=1.0),), metric=matrix_metric(D),
                                    centers=CenterSpec(k=2),
                                    membership="fractional", opening_penalty=0.1))
    sol = make_solution(prob, np.array([0, 1]), [[0.5, 0.5]])
    assert sol.objective.distance_term == pytest.approx(2.0, abs=1e-12)
    assert sol.objective.opening_term == pytest.approx(0.2, abs=1e-12)


def test_two_split_points_cross_checked_by_direct_sum():
    D = np.array([[1.0, 3.0], [2.0, 0.5]])
    w = [1.0, 2.0]
    y = np.array([[0.5, 0.5], [0.25, 0.75]])
    prob = validate_problem(Problem(points=tuple(Point(i, w=w[i]) for i in range(2)),
                                    metric=matrix_metric(D),
                                    centers=CenterSpec(k=2),
                                    membership="fractional"))
    sol = make_solution(prob, np.array([0, 1]), y)
    direct = sum(w[i] * D[i, j] * y[i, j] for i in range(2) for j in range(2))
    assert sol.objective.total == pytest.approx(direct, rel=1e-15)


def test_release_term_counts_released_centers():
    prob = validate_problem(Problem(
        points=(Point(0, coords=(0.0, 0.0), w=1.0),), metric=euclidean(),
        centers=CenterSpec(k=1, fixed=((5.0, 0.0),), release_penalty=2.5),
    ))
    sol = make_solution(prob, np.array([[0.0, 0.0]]), [[1.0]], released={0})
    assert sol.objective.release_term == 2.5
    kept = make_solution(prob, np.array([[5.0, 0.0]]), [[1.0]])
    assert kept.objective.release_term == 0.0


def test_release_term_zero_even_with_infinite_penalty():
    prob = validate_problem(Problem(
        points=(Point(0, coords=(0.0, 0.0), w=1.0),), metric=euclidean(),
        centers=CenterSpec(k=1, fixed=((5.0, 0.0),), release_penalty=math.inf),
    ))
    sol = make_solution(prob, np.array([[5.0, 0.0]]), [[1.0]])
    assert sol.objective.release_term == 0.0
    assert not math.isnan(sol.objective.total)


def test_shape_mismatch():
    prob = validate_problem(Problem(points=(Point(0, coords=(0.0, 0.0)),),
                                    metric=euclidean(), centers=CenterSpec(k=1)))
    with pytest.raises(ShapeMismatch):
        make_solution(prob, np.array([[0.0, 0.0]]), [[1.0, 0.0]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_point_order_permutation_leaves_total_bit_identical(seed):
    rng = np.random.default_rng(seed)
    n, k = 12, 3
    xy = rng.uniform(0, 10, size=(n, 2))
    w = rng.uniform(0.1, 4, size=n)
    gamma = rng.uniform(0, 1, size=n)
    centers = rng.uniform(0, 10, size=(k, 2))
    y = rng.dirichlet(np.ones(k), size=n)
    pts = [Point(i, coords=tuple(xy[i]), w=float(w[i]), gamma=float(gamma[i])) for i in range(n)]

    def total_for(order):
        prob = validate_problem(Problem(points=tuple(pts[i] for i in order),
                                        metric=euclidean(), centers=CenterSpec(k=k),
                                        membership="fractional"))
        sol = make_solution(prob, centers, y[order])
        return sol.objective.total

    base = total_for(list(range(n)))
    perm = rng.permutation(n)
    assert total_for(list(perm)) == base  # bit-identical under id-sorted summation


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_zero_preference_reduces_to_plain_weighted_loss(seed):
    rng = np.random.default_rng(seed)
    n, k = 8, 2
    xy = rng.uniform(0, 5, size=(n, 2))
    w = rng.uniform(0.5, 2, size=n)
    centers = rng.uniform(0, 5, size=(k, 2))
    labels = rng.integers(0, k, size=n)
    y = np.zeros((n, k))
    y[np.arange(n), labels] = 1.0
    pts = tuple(Point(i, coords=tuple(xy[i]), w=float(w[i]), gamma=0.0) for i in range(n))
    prob = validate_problem(Problem(points=pts, metric=euclidean(), centers=CenterSpec(k=k)))
    sol = make_solution(prob, centers, y)
    plain = sum(w[i] * np.hypot(*(xy[i] - centers[labels[i]])) for i in range(n))
    assert sol.objective.total == pytest.approx(plain, rel=1e-12)


def test_hard_labels_prefer_lowest_index_then_center_over_outlier():
    assignment = Assignment(y=np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]), has_outlier=True)
    assert assignment.hard_labels().tolist() == [0, 1, -1]


def test_breakdown_total_is_sum_of_terms():
    b = ObjectiveBreakdown(1.0, 2.0, 3.0, 4.0)
    assert b.total == 10.0


def test_evaluate_objective_recomputes_stored_breakdown():
    from capclust import evaluate_objective

    prob = validate_problem(Problem(points=(Point(0, coords=(0.0, 0.0), w=2.0),),
                                    metric=euclidean(), centers=CenterSpec(k=1)))
    sol = make_solution(prob, np.array([[3.0, 0.0]]), [[1.0]])
    assert evaluate_objective(prob, sol) == sol.objective


def _weighted_problem(rng, n=200, **kw):
    pts = tuple(Point(i, coords=tuple(rng.uniform(0.0, 5.0, size=2)), w=float(rng.uniform(0.1, 3.0)),
                      gamma=float(rng.uniform(0.0, 1.0)), q=kw.pop("q", 1)) for i in range(n))
    return validate_problem(Problem(points=pts, metric=euclidean(), centers=CenterSpec(k=4), **kw))


@pytest.mark.parametrize("outlier", [None, 0.8])
def test_label_indexed_evaluation_equals_the_dense_product(outlier):
    rng = np.random.default_rng(40)
    prob = _weighted_problem(rng, outlier_penalty=outlier)
    for _ in range(5):
        centers = rng.uniform(0.0, 5.0, size=(4, 2))
        labelled = allocate(prob, centers)
        assert labelled.labels is not None
        if outlier is not None:  # some rows go to the outlier column, some to centers
            assert 0 < (labelled.labels == prob.k).sum() < prob.n
        dense = replace(labelled, labels=None)
        assert evaluate_parts(prob, centers, labelled, frozenset()) == evaluate_parts(prob, centers, dense, frozenset())
        assert np.array_equal(labelled.hard_labels(), dense.hard_labels())


@pytest.mark.parametrize("outlier", [False, True])
def test_label_assignment_matches_its_dense_form(outlier):
    labels = np.array([2, 0, 1, 2, 0, 1, 1])
    labelled = Assignment(y=None, has_outlier=outlier, labels=labels, columns=3)
    dense = Assignment(y=np.eye(3)[labels], has_outlier=outlier)
    assert labelled.n_centers == dense.n_centers == (2 if outlier else 3)
    assert labelled.shape == dense.shape == (7, 3)
    assert np.array_equal(labelled.hard_labels(), dense.hard_labels())
    assert "y" not in vars(labelled)
    a = np.arange(1.0, 8.0)
    assert np.array_equal(labelled.outlier_column, dense.outlier_column)
    assert np.array_equal(labelled.center_block, dense.center_block)
    assert np.array_equal(labelled.loads(a), dense.loads(a))
    assert np.array_equal(labelled.row_sums(), dense.row_sums())
    assert np.array_equal(labelled.y, dense.y)
    assert labelled.y is labelled.y
    assert np.array_equal(replace(labelled, labels=None).y, dense.y)
    with pytest.raises(ValueError, match="labels and columns"):
        Assignment(y=None, has_outlier=outlier, labels=labels)


@pytest.mark.parametrize("kw", [
    {"q": 2},
    {"membership": "fractional"},
    {"membership": "fractional", "capacity": (10.0, 30.0)},
])
def test_multi_cover_fractional_and_capacitated_assignments_stay_dense(kw):
    # An uncapacitated fractional assignment with every q = 1 is the nearest
    # assignment, whose rows are one-hot: it carries labels as a hard one does.
    rng = np.random.default_rng(41)
    prob = _weighted_problem(rng, n=60, outlier_penalty=0.8, **kw)
    assignment = allocate(prob, rng.uniform(0.0, 5.0, size=(4, 2)))
    if kw == {"membership": "fractional"}:
        assert np.array_equal(assignment.labels, np.argmax(assignment.y, axis=1))
    else:
        assert assignment.labels is None


@pytest.mark.parametrize("q", [1, 2])
def test_capacitated_hard_assignment_carries_labels_when_every_q_is_one(q):
    # Every row of a hard assignment with q = 1 is one-hot, so its column labels it.
    rng = np.random.default_rng(41)
    prob = _weighted_problem(rng, n=60, outlier_penalty=0.8, q=q, membership="hard", capacity=(10.0, 30.0))
    centers = rng.uniform(0.0, 5.0, size=(4, 2))
    labelled = allocate(prob, centers)
    if q == 2:
        assert labelled.labels is None
        return
    assert np.array_equal(labelled.labels, np.argmax(labelled.y, axis=1))
    assert 0 < (labelled.labels == prob.k).sum() < prob.n
    dense = replace(labelled, labels=None)
    assert evaluate_parts(prob, centers, labelled, frozenset()) == evaluate_parts(prob, centers, dense, frozenset())
