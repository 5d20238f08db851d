import numpy as np
import pytest

from capclust import (
    CenterSpec, Point, Problem, SolverConfig, descend, euclidean, kmeanspp_init,
    matrix_metric, solve, sqeuclidean, validate_problem,
)
from capclust.errors import AllRestartsInfeasible
from oracles import reference_lloyd


def blob_points(rng, centers, per=20, sigma=0.5, w=None):
    pts = []
    i = 0
    for cx, cy in centers:
        for _ in range(per):
            x, y = rng.normal([cx, cy], sigma)
            pts.append(Point(i, coords=(x, y), w=float(w if w is not None else 1.0)))
            i += 1
    return tuple(pts)


def continuous_problem(points, metric=None, **kw):
    k = kw.pop("k", 3)
    return validate_problem(Problem(points=points, metric=metric or sqeuclidean(),
                                    centers=CenterSpec(k=k, **kw.pop("center_kw", {})), **kw))


def test_kmeanspp_all_points_become_centers_when_k_equals_n():
    pts = tuple(Point(i, coords=(float(i), 0.0)) for i in range(5))
    prob = continuous_problem(pts, k=5)
    centers = kmeanspp_init(prob, np.random.default_rng(0))
    assert sorted(centers[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_kmeanspp_never_duplicates_a_chosen_point():
    pts = tuple(Point(i, coords=(float(i % 4), float(i // 4))) for i in range(12))
    prob = continuous_problem(pts, k=6)
    centers = kmeanspp_init(prob, np.random.default_rng(1))
    assert len({tuple(c) for c in centers.tolist()}) == 6


def test_kmeanspp_deterministic_given_seed():
    rng = np.random.default_rng(7)
    pts = blob_points(rng, [(0, 0), (8, 0), (4, 7)], per=15)
    prob = continuous_problem(pts)
    a = kmeanspp_init(prob, np.random.default_rng(42))
    b = kmeanspp_init(prob, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_kmeanspp_seeds_fixed_centers_first():
    rng = np.random.default_rng(8)
    pts = blob_points(rng, [(0, 0), (8, 0)], per=10)
    prob = continuous_problem(pts, k=3, center_kw={"fixed": ((3.0, 3.0),)})
    centers = kmeanspp_init(prob, np.random.default_rng(5))
    assert centers[0].tolist() == [3.0, 3.0]


def test_kmeanspp_discrete_snaps_to_distinct_sites():
    rng = np.random.default_rng(9)
    xy = rng.uniform(0, 10, size=(30, 2))
    pts = tuple(Point(i, coords=tuple(xy[i])) for i in range(30))
    sites = rng.uniform(0, 10, size=(8, 2))
    prob = validate_problem(Problem(points=pts, metric=euclidean(),
                                    centers=CenterSpec(k=4, placement="discrete", candidates=sites)))
    centers = kmeanspp_init(prob, np.random.default_rng(3))
    assert len(set(centers.tolist())) == 4
    assert all(0 <= c < 8 for c in centers)


def _reference_discrete_seeds(problem, rng):
    """Discrete k-means++ seeding with a per-point eligibility loop."""
    from capclust import metrics

    cand = metrics.candidate_distances(problem)
    snap = np.argmin(cand, axis=1)
    w = problem.effective_weights
    chosen = [int(f) for f in problem.centers.fixed]
    best = np.min(cand[:, chosen], axis=1) if chosen else None
    while len(chosen) < problem.k:
        eligible = np.array([snap[i] not in chosen for i in range(problem.n)])
        masses = np.where(eligible, w * best**2 if best is not None else w, 0.0)
        if masses.sum() <= 0:
            masses = eligible.astype(float)
        if masses.sum() > 0:
            site = int(snap[rng.choice(problem.n, p=masses / masses.sum())])
        else:
            site = [h for h in range(cand.shape[1]) if h not in chosen][0]
        chosen.append(site)
        best = cand[:, site] if best is None else np.minimum(best, cand[:, site])
    return np.asarray(chosen)


@pytest.mark.parametrize("n_sites, fixed", [(12, ()), (12, (3, 7)), (3, ())])
def test_kmeanspp_discrete_matches_reference_loop(n_sites, fixed):
    rng = np.random.default_rng(10)
    xy = rng.uniform(0, 10, size=(40, 2))
    pts = tuple(Point(i, coords=tuple(xy[i]), w=float(rng.uniform(0.5, 2))) for i in range(40))
    # with three sites on one side, every point snaps to site 0 and the
    # last two seeds fall back to the lowest unused sites
    sites = rng.uniform(0, 10, size=(n_sites, 2)) if n_sites > 3 else np.array([[5.0, 5.0], [50.0, 0], [60.0, 0]])
    prob = validate_problem(Problem(points=pts, metric=euclidean(),
                                    centers=CenterSpec(k=3 if n_sites == 3 else 6, placement="discrete",
                                                       candidates=sites, fixed=fixed)))
    for seed in range(5):
        got = kmeanspp_init(prob, np.random.default_rng(seed))
        assert np.array_equal(got, _reference_discrete_seeds(prob, np.random.default_rng(seed)))


def test_descend_two_separated_pairs_reaches_midpoints():
    pts = (Point(0, coords=(0.0, 0.0)), Point(1, coords=(1.0, 0.0)),
           Point(2, coords=(10.0, 0.0)), Point(3, coords=(11.0, 0.0)))
    prob = continuous_problem(pts, k=2)
    sol = descend(prob, np.array([[0.4, 0.0], [10.4, 0.0]]), SolverConfig())
    got = sorted(sol.centers[:, 0].tolist())
    assert np.allclose(got, [0.5, 10.5])
    # each pair contributes 2 * (1/2)^2 under squared Euclidean
    assert sol.objective.total == pytest.approx(2 * (2 * 0.25), abs=1e-12)


def test_descend_stops_immediately_at_fixed_point():
    pts = (Point(0, coords=(0.0, 0.0)), Point(1, coords=(2.0, 0.0)))
    prob = continuous_problem(pts, k=1)
    sol = descend(prob, np.array([[1.0, 0.0]]), SolverConfig())
    assert sol.diagnostics["iterations"] == 1
    assert sol.diagnostics["stop"] == "centers_unchanged"


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(12)
    pts = blob_points(rng, [(0, 0), (6, 1), (3, 6)], per=25)
    for capacity, membership in [(None, "hard"), ((15.0, 35.0), "fractional"),
                                 ((15.0, 35.0), "hard")]:
        prob = continuous_problem(pts, capacity=capacity, membership=membership)
        sol = solve(prob, SolverConfig(restarts=3, rng_seed=4))
        trace = sol.diagnostics["objective_trace"]
        diffs = np.diff(trace)
        assert (diffs <= 1e-9 * max(1.0, abs(trace[0]))).all(), trace


def test_solution_assignment_respects_loads_and_rows():
    rng = np.random.default_rng(13)
    pts = blob_points(rng, [(0, 0), (6, 1), (3, 6)], per=20)
    prob = continuous_problem(pts, capacity=(18.0, 22.0), membership="fractional")
    sol = solve(prob, SolverConfig(restarts=3, rng_seed=2))
    loads = sol.assignment.loads(prob.capacity_coeffs)
    assert (loads >= 18.0 - 1e-6).all() and (loads <= 22.0 + 1e-6).all()
    assert np.allclose(sol.assignment.row_sums(), 1.0, atol=1e-6)


def test_lloyd_reduction_on_seeded_instances():
    rng = np.random.default_rng(99)
    xy = np.vstack([rng.normal([0, 0], 0.7, (20, 2)),
                    rng.normal([7, 0], 0.7, (20, 2)),
                    rng.normal([3, 6], 0.7, (20, 2))])
    pts = tuple(Point(i, coords=tuple(xy[i])) for i in range(60))
    prob = continuous_problem(pts, k=3)
    centers0 = kmeanspp_init(prob, np.random.default_rng(17))
    sol = descend(prob, centers0, SolverConfig())
    assert sol.diagnostics["empty_reseeds"] == 0
    reference = reference_lloyd(xy, centers0)
    mine = sol.diagnostics["center_trace"]
    for step, (ref_c, my_c) in enumerate(zip(reference, mine)):
        assert np.allclose(ref_c, my_c, atol=1e-10), f"diverged at step {step}"


def test_fixed_center_with_infinite_penalty_never_released():
    rng = np.random.default_rng(15)
    pts = blob_points(rng, [(0, 0), (9, 0)], per=15)
    prob = continuous_problem(pts, k=2, center_kw={"fixed": ((4.0, 8.0),), "release_penalty": np.inf})
    sol = solve(prob, SolverConfig(restarts=3, rng_seed=1))
    assert sol.released == frozenset()
    assert sol.centers[0].tolist() == [4.0, 8.0]


def test_fixed_center_released_when_penalty_small():
    rng = np.random.default_rng(16)
    pts = blob_points(rng, [(0, 0), (9, 0)], per=15)
    prob = continuous_problem(pts, k=2, center_kw={"fixed": ((4.0, 8.0),), "release_penalty": 0.5})
    sol = solve(prob, SolverConfig(restarts=4, rng_seed=1))
    assert 0 in sol.released
    assert sol.objective.release_term == pytest.approx(0.5)
    # released center appears away from its prescribed location
    assert np.abs(sol.centers[0] - [4.0, 8.0]).max() > 1.0


def test_released_center_keeps_its_location_on_a_worse_update(monkeypatch):
    from capclust import location, solver

    offsets = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    pts = tuple(Point(i, coords=(10.0 + dx, dy)) for i, (dx, dy) in enumerate(offsets))
    prob = continuous_problem(pts, k=1, center_kw={"fixed": ((0.0, 0.0),), "release_penalty": 0.5})
    exact = location.update_center_continuous
    calls = []

    def worse_after_release(kind, xy, masses):
        # the first update releases the center; every later one offers a worse point
        calls.append(1)
        update = exact(kind, xy, masses)
        return update if len(calls) == 1 else update._replace(coords=update.coords + [3.0, 0.0])

    for module in (location, solver):
        monkeypatch.setattr(module, "update_center_continuous", worse_after_release)
    sol = descend(prob, np.array([[0.0, 0.0]]), SolverConfig())
    trace = sol.diagnostics["objective_trace"]
    assert len(calls) >= 2
    assert sol.released == frozenset({0})
    assert sol.centers[0].tolist() == [10.0, 0.0]
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_large_preference_attracts_a_center():
    rng = np.random.default_rng(18)
    pts = list(blob_points(rng, [(0, 0), (10, 0)], per=12))
    anchor = (5.0, 5.0)
    pts.append(Point(len(pts), coords=anchor, w=0.0, gamma=500.0, a=0.0, pseudo=True))
    prob = continuous_problem(tuple(pts), k=3)
    sol = solve(prob, SolverConfig(restarts=6, rng_seed=3))
    nearest = np.sqrt(((sol.centers - np.array(anchor)) ** 2).sum(axis=1)).min()
    assert nearest < 0.2


def test_solver_deterministic_for_seed():
    rng = np.random.default_rng(20)
    pts = blob_points(rng, [(0, 0), (5, 5)], per=12)
    prob = continuous_problem(pts, k=2, capacity=(8.0, 16.0), membership="fractional")
    a = solve(prob, SolverConfig(restarts=4, rng_seed=11))
    b = solve(prob, SolverConfig(restarts=4, rng_seed=11))
    assert np.array_equal(a.centers, b.centers)
    assert a.objective.total == b.objective.total
    assert np.array_equal(a.assignment.y, b.assignment.y)


def test_best_of_restarts_non_increasing_in_restart_count():
    rng = np.random.default_rng(21)
    pts = blob_points(rng, [(0, 0), (4, 1), (2, 4), (6, 5)], per=10)
    prob = continuous_problem(pts, k=4)
    objectives = [solve(prob, SolverConfig(restarts=r, rng_seed=5)).objective.total
                  for r in (1, 3, 6)]
    assert objectives[0] >= objectives[1] >= objectives[2]


def test_restarts_equal_one_matches_single_descend():
    rng = np.random.default_rng(22)
    pts = blob_points(rng, [(0, 0), (6, 0)], per=10)
    prob = continuous_problem(pts, k=2)
    config = SolverConfig(restarts=1, rng_seed=9)
    via_solve = solve(prob, config)
    seed_stream = np.random.SeedSequence(9).spawn(1)[0]
    centers0 = kmeanspp_init(prob, np.random.default_rng(seed_stream))
    via_descend = descend(prob, centers0, config)
    assert np.array_equal(via_solve.centers, via_descend.centers)
    assert via_solve.objective.total == via_descend.objective.total


def test_all_restarts_infeasible():
    D = np.array([[1.0], [1.0]])
    pts = (Point(0, a=2.0), Point(1, a=2.0))
    prob = validate_problem(Problem(points=pts, metric=matrix_metric(D),
                                    centers=CenterSpec(k=1, placement="discrete"),
                                    membership="hard", capacity=(0.0, 3.0)))
    with pytest.raises(AllRestartsInfeasible):
        solve(prob, SolverConfig(restarts=2, rng_seed=0))


def test_discrete_hard_terminates_without_iteration_cap():
    rng = np.random.default_rng(24)
    xy = rng.uniform(0, 10, size=(40, 2))
    pts = tuple(Point(i, coords=tuple(xy[i]), w=float(rng.uniform(0.5, 2))) for i in range(40))
    sites = rng.uniform(0, 10, size=(10, 2))
    prob = validate_problem(Problem(points=pts, metric=euclidean(),
                                    centers=CenterSpec(k=4, placement="discrete", candidates=sites),
                                    membership="hard"))
    sol = solve(prob, SolverConfig(restarts=3, rng_seed=6, max_iterations=500))
    assert sol.diagnostics["iterations"] < 500
    assert sol.diagnostics["stop"] in ("centers_unchanged", "objective_stalled")


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_stable_clusters_skip_the_weiszfeld_step(monkeypatch):
    from capclust import location

    rng = np.random.default_rng(30)
    pts = blob_points(rng, [(0, 0), (9, 0), (4, 8)], per=20)
    prob = continuous_problem(pts, metric=euclidean())
    calls = _counting(monkeypatch, location, "weiszfeld")
    sol = descend(prob, np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 2.0]]), SolverConfig())
    iterations = sol.diagnostics["iterations"]
    assert iterations >= 2
    assert len(calls) < prob.k * iterations


@pytest.mark.parametrize("placement", ["continuous", "discrete"])
def test_unreleasable_fixed_center_runs_no_location_update(monkeypatch, placement):
    from capclust import location, solver

    rng = np.random.default_rng(34)
    pts = blob_points(rng, [(0, 0), (9, 0)], per=10)
    if placement == "discrete":
        center_kw = {"placement": "discrete", "candidates": rng.uniform(-1, 10, size=(8, 2)), "fixed": (3,)}
    else:
        center_kw = {"fixed": ((4.0, 8.0),)}
    prob = continuous_problem(pts, metric=euclidean(), k=1, center_kw={**center_kw, "release_penalty": np.inf})
    calls = [_counting(monkeypatch, module, name) for module in (location, solver)
             for name in ("update_center_continuous", "update_center_discrete")]
    sol = descend(prob, kmeanspp_init(prob, np.random.default_rng(0)), SolverConfig())
    assert calls == [[]] * 4
    assert sol.released == frozenset()
    assert np.array_equal(sol.centers, kmeanspp_init(prob, np.random.default_rng(0)))


@pytest.mark.parametrize("capacity, membership, outlier", [
    (None, "hard", None), (None, "hard", 3.0), ((15.0, 35.0), "fractional", None), ((15.0, 35.0), "hard", None),
])
def test_one_distance_matrix_per_iteration(monkeypatch, capacity, membership, outlier):
    from capclust import metrics

    rng = np.random.default_rng(31)
    pts = blob_points(rng, [(0, 0), (6, 1), (3, 6)], per=25)
    prob = continuous_problem(pts, metric=euclidean(), capacity=capacity, membership=membership,
                              outlier_penalty=outlier)
    centers0 = kmeanspp_init(prob, np.random.default_rng(2))
    calls = _counting(monkeypatch, metrics, "distances_to_centers")
    sol = descend(prob, centers0, SolverConfig())
    assert len(calls) <= sol.diagnostics["iterations"] + 2


def test_reseeded_cluster_is_recomputed(monkeypatch):
    from capclust import solver
    from capclust.model import Assignment

    pts = (Point(0, coords=(0.0, 0.0)), Point(1, coords=(2.0, 0.0)),
           Point(2, coords=(10.0, 0.0)), Point(3, coords=(12.0, 0.0)))
    prob = continuous_problem(pts, k=2)
    split = np.array([[0, 1], [0, 1], [1, 0], [1, 0]], dtype=float)
    merged = np.array([[1, 0], [1, 0], [1, 0], [1, 0]], dtype=float)
    # Cluster 1 holds points 0 and 1, empties (and is reseeded), then holds
    # the same points again: its input repeats but its center has moved.
    script = [split, merged, split]

    def scripted(problem, centers, time_budget=None, *, distances=None):
        y = script.pop(0) if script else split
        return Assignment(y=y, membership=problem.membership, has_outlier=False)

    monkeypatch.setattr(solver, "allocate", scripted)
    sol = descend(prob, np.array([[10.0, 0.0], [0.5, 0.0]]),
                  SolverConfig(max_iterations=3, convergence_tol=-np.inf))
    trace = sol.diagnostics["center_trace"]
    assert sol.diagnostics["empty_reseeds"] == 1
    assert trace[0][1].tolist() == [1.0, 0.0]
    assert trace[1][1].tolist() == [0.0, 0.0]
    assert trace[2][1].tolist() == [1.0, 0.0]


def _skip_cases():
    rng = np.random.default_rng(32)
    pts = blob_points(rng, [(0, 0), (7, 0), (3, 6), (9, 7)], per=30)
    yield continuous_problem(pts, metric=euclidean(), k=5, outlier_penalty=2.0,
                             center_kw={"fixed": ((3.0, 3.0), (8.0, 1.0)), "release_penalty": 6.0})
    yield continuous_problem(pts, metric=euclidean(), k=4, capacity=(20.0, 40.0), membership="fractional")
    sites = rng.uniform(-1, 10, size=(15, 2))
    yield validate_problem(Problem(points=pts, metric=euclidean(),
                                   centers=CenterSpec(k=4, placement="discrete", candidates=sites,
                                                      fixed=(2,), release_penalty=5.0)))


@pytest.mark.parametrize("unconverged", [False, True])
def test_skipping_matches_a_full_location_step(monkeypatch, unconverged):
    from capclust import location, solver

    if unconverged:
        # every Weiszfeld run reports no convergence, so the count must be
        # replayed for skipped clusters
        weiszfeld = location.weiszfeld
        monkeypatch.setattr(location, "weiszfeld", lambda *a, **kw: weiszfeld(*a, **kw)._replace(converged=False))
    for prob in _skip_cases():
        for seed in range(3):
            centers0 = kmeanspp_init(prob, np.random.default_rng(seed))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_same_input", lambda *args: False)
                reference = descend(prob, centers0, SolverConfig())
            got = descend(prob, centers0, SolverConfig())
            ref_diag, got_diag = dict(reference.diagnostics), dict(got.diagnostics)
            ref_centers, got_centers = ref_diag.pop("center_trace"), got_diag.pop("center_trace")
            assert got_diag == ref_diag
            assert len(got_centers) == len(ref_centers)
            assert all(np.array_equal(a, b) for a, b in zip(got_centers, ref_centers))
            assert np.array_equal(got.centers, reference.centers)
            assert got.released == reference.released
