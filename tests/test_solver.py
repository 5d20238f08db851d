import ast
import math
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from capclust import (
    CenterSpec, Point, Problem, SolverConfig, descend, euclidean, kmeanspp_init, manhattan,
    matrix_metric, solve, sqeuclidean, sweep_k, threshold, validate_problem,
)
from capclust import selection, solver
from capclust.errors import AllRestartsInfeasible, CapclustError, NotEnoughDistinctSites, ShapeMismatch, ValidationError
from oracles import assert_same_solution, reference_distances, reference_kmeanspp, reference_solve


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


@pytest.mark.parametrize("budget", [-1.0, -math.inf, math.nan])
def test_negative_or_nan_time_budget_rejected(budget):
    with pytest.raises(ValueError, match="time_budget"):
        SolverConfig(time_budget=budget)


@pytest.mark.parametrize("field, value", [("time_budget", "1"), ("convergence_tol", "1e-9"),
                                          ("convergence_tol", math.nan), ("convergence_tol", None)])
def test_non_numeric_budget_or_tolerance_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("tol", [0.0, -1.0, -math.inf, np.float32(1e-6)])
def test_negative_and_infinite_tolerances_accepted(tol):
    assert SolverConfig(convergence_tol=tol).convergence_tol == tol


@pytest.mark.parametrize("budget", [None, 0.0, 2.5, math.inf])
def test_zero_and_infinite_time_budgets_accepted(budget):
    assert SolverConfig(time_budget=budget).time_budget == budget


def test_restart_counts_above_10000_rejected():
    for restarts in (10_001, 100_000_000, 0):
        with pytest.raises(ValueError, match="restarts must be between 1 and 10000"):
            SolverConfig(restarts=restarts)
    assert SolverConfig(restarts=1).restarts == 1 and SolverConfig(restarts=10_000).restarts == 10_000


@pytest.mark.parametrize("field, value", [
    ("restarts", 2.5), ("restarts", True), ("restarts", "3"), ("rng_seed", 1.5), ("rng_seed", False),
    ("rng_seed", np.bool_(True)), ("max_iterations", 2.5), ("max_iterations", True), ("max_iterations", None),
])
def test_counts_and_seed_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


def test_max_iterations_below_one_rejected():
    for max_iterations in (0, -3):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            SolverConfig(max_iterations=max_iterations)
    config = SolverConfig(restarts=np.int64(3), rng_seed=np.uint32(7), max_iterations=np.int16(1))
    assert (config.restarts, config.rng_seed, config.max_iterations) == (3, 7, 1)


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


# With the three sites of the n_sites = 3 cases every point snaps to site 0,
# so once site 0 is taken (by a draw or as a fixed center) every further seed
# falls back to the lowest unused site.
@pytest.mark.parametrize("n_sites, fixed", [(12, ()), (12, (3, 7)), (3, ()), (3, (0,)), (3, (2,))])
def test_kmeanspp_discrete_matches_reference_loop(n_sites, fixed):
    rng = np.random.default_rng(10)
    xy = rng.uniform(0, 10, size=(40, 2))
    pts = tuple(Point(i, coords=tuple(xy[i]), w=float(rng.uniform(0.5, 2))) for i in range(40))
    sites = rng.uniform(0, 10, size=(n_sites, 2)) if n_sites > 3 else np.array([[5.0, 5.0], [50.0, 0], [60.0, 0]])
    prob = validate_problem(Problem(points=pts, metric=euclidean(),
                                    centers=CenterSpec(k=3 if n_sites == 3 else 6, placement="discrete",
                                                       candidates=sites, fixed=fixed)))
    if n_sites == 3:
        assert (prob.nearest_site == 0).all()
    for seed in range(5):
        got = kmeanspp_init(prob, np.random.default_rng(seed))
        assert np.array_equal(got, reference_kmeanspp(prob, np.random.default_rng(seed)))


def _seeding_problem(case):
    """(problem, largest k) for the shared-seeding tests; every k of it shares ``problem.shared``."""
    rng = np.random.default_rng(12)
    xy = rng.uniform(0, 10, size=(40, 2))
    pts = tuple(Point(i, coords=tuple(xy[i]), w=float(rng.uniform(0.5, 2))) for i in range(40))
    sites = rng.uniform(0, 10, size=(12, 2))
    centers = {
        "discrete": CenterSpec(k=1, placement="discrete", candidates=sites),
        "discrete-fixed": CenterSpec(k=2, placement="discrete", candidates=sites, fixed=(3, 7)),
        # Every point snaps to site 0, so later seeds take the lowest free site without a draw.
        "discrete-one-snap": CenterSpec(k=1, placement="discrete",
                                        candidates=np.array([[5.0, 5.0], [50.0, 0.0], [60.0, 0.0]])),
        "continuous": CenterSpec(k=1),
        "continuous-fixed": CenterSpec(k=2, fixed=((2.0, 2.0), (8.0, 5.0))),
    }[case]
    return validate_problem(Problem(points=pts, metric=euclidean(), centers=centers)), (3 if "snap" in case else 9)


def _with_k(problem, k):
    return validate_problem(replace(problem, centers=replace(problem.centers, k=k)))


SEEDING_CASES = ["discrete", "discrete-fixed", "discrete-one-snap", "continuous", "continuous-fixed"]


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("case", SEEDING_CASES)
def test_kmeanspp_seeds_for_k_are_the_first_k_of_a_larger_k(case, shared):
    base, k_max = _seeding_problem(case)
    ks = range(base.k, k_max + 1)
    fresh = {}  # (seed, k) -> the seeds and the generator state of a call from a new generator
    for seed in (0, 1):
        for k in ks:
            rng = np.random.default_rng(seed)
            fresh[seed, k] = kmeanspp_init(_with_k(base, k), rng), rng.bit_generator.state
    for seed in (0, 1):
        for k in ks:
            assert np.array_equal(fresh[seed, k][0], fresh[seed, k_max][0][:k])

    # "fresh" draws every k from a new generator; "shared" draws one sequence
    # per seed, both rows of one lockstep group, and reads every k from it in
    # any order.
    order = [k_max - 1, base.k, k_max, base.k + 1, k_max, k_max - 1]
    batch = solver._SeedBatch(base, [np.random.default_rng(seed) for seed in (0, 1)])
    longest = 0
    for k in order:
        if shared:
            batch.advance(k)
            longest = max(longest, k)
        for seed in (0, 1):
            if shared:
                assert np.array_equal(batch.first(k)[seed], fresh[seed, k][0])
                # The generator stays where the longest draw left it.
                assert batch.rngs[seed].bit_generator.state == fresh[seed, longest][1]
            else:
                rng = np.random.default_rng(seed)
                assert np.array_equal(kmeanspp_init(_with_k(base, k), rng), fresh[seed, k][0])
                assert rng.bit_generator.state == fresh[seed, k][1]


def _choice_draw(rng, masses, eligible):
    """The k-means++ draw as ``Generator.choice`` makes it."""
    masses = np.where(eligible, masses, 0.0)
    if masses.sum() <= 0:
        masses = eligible.astype(float)
    return int(rng.choice(len(masses), p=masses / masses.sum()))


@pytest.mark.parametrize("n", [1, 325, 1300, 3000])
def test_draw_matches_generator_choice(n):
    # Same point and same generator state after it, row by row, for weighted,
    # single-point and zero-mass draws made together, each from its own generator.
    data = np.random.default_rng(n)
    for batch in range(100):
        masses, eligible = data.exponential(size=(3, n)) * (data.random((3, n)) < 0.9), data.random((3, n)) < 0.8
        masses *= 10.0 ** data.integers(-5, 5, size=(3, 1))
        eligible[1] = np.arange(n) == data.integers(n)  # one eligible point
        masses[2] = np.where(eligible[2], 0.0, masses[2])  # no mass among the eligible points: a uniform draw
        eligible[~eligible.any(axis=1), 0] = True
        for rows, every in ((eligible, None), (None, np.ones((3, n), dtype=bool))):  # given, or all eligible
            ours = [np.random.default_rng([batch, r]) for r in range(3)]
            theirs = [np.random.default_rng([batch, r]) for r in range(3)]
            got = solver._draws(ours, masses.copy(), rows).tolist()
            expect = [_choice_draw(rng, m, e) for rng, m, e in zip(theirs, masses, every if rows is None else rows)]
            assert got == expect
            assert [rng.bit_generator.state for rng in ours] == [rng.bit_generator.state for rng in theirs]
    # A row without an eligible point draws nothing (-1): its generator stays where it was.
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    states = [rng.bit_generator.state for rng in rngs]
    got = solver._draws(rngs, np.ones((2, n)), np.array([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]))
    assert got[0] == -1 and got[1] == _choice_draw(np.random.default_rng(1), np.ones(n), np.ones(n, dtype=bool))
    assert rngs[0].bit_generator.state == states[0] != rngs[1].bit_generator.state


class _Seeded(CapclustError):
    """Raised in place of a descent: its seeds and starts are what a test reads."""


def _oracle_problem(seed, kind, placement, weights, n_fixed, k, far_sites, capacity):
    """A small validated problem for the seeding oracle; every point has coordinates.

    ``weights`` is "positive", "some-zero" (a few w' = 0), "all-zero" or
    "stacked" (points on three spots, so that seeds on those spots leave
    every mass at zero).  With ``far_sites`` the upper half of the candidate
    sites is far from every point, so that no point snaps to one.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 14))
    if placement == "continuous":  # enough points to seed the free centers
        n = max(n, k - n_fixed)
    xy = rng.uniform(0, 10, size=(n, 2))
    if weights == "stacked":
        xy = rng.uniform(0, 10, size=(3, 2))[rng.integers(0, 3, size=n)]
    w = rng.uniform(0.5, 2.0, size=n)
    if weights == "some-zero":
        w[rng.random(n) < 0.4] = 0.0
    elif weights == "all-zero":
        w[:] = 0.0
    pts = tuple(Point(i, coords=(float(x), float(y)), w=float(w[i])) for i, (x, y) in enumerate(xy))
    kw = {"capacity": (0.0, float(w.sum()) + 1.0)} if capacity else {"outlier_penalty": float(rng.uniform(1, 20))}
    if placement == "continuous":
        fixed = tuple(tuple(map(float, f)) for f in rng.uniform(0, 10, size=(n_fixed, 2)))
        centers = CenterSpec(k=k, fixed=fixed, release_penalty=1.0)
        metric = {"sqeuclidean": sqeuclidean(), "euclidean": euclidean(), "manhattan": manhattan()}[kind]
    else:
        n_sites = int(rng.integers(max(k, 1), 9))
        sites = rng.uniform(0, 10, size=(n_sites, 2))
        if far_sites:
            sites[n_sites // 2:] += 1000.0
        fixed = tuple(int(h) for h in rng.permutation(n_sites)[:n_fixed])
        centers = CenterSpec(k=k, placement="discrete", candidates=sites, fixed=fixed, release_penalty=1.0)
        metric = {"sqeuclidean": sqeuclidean(), "euclidean": euclidean(), "manhattan": manhattan(),
                  "threshold": threshold(3.0),
                  "matrix": matrix_metric(np.sqrt(((xy[:, None] - sites[None]) ** 2).sum(axis=2)).round(1))}[kind]
    return validate_problem(Problem(points=pts, metric=metric, centers=centers, **kw))


@pytest.mark.parametrize("kind, placement", [
    ("sqeuclidean", "continuous"), ("euclidean", "continuous"), ("manhattan", "continuous"),
    ("sqeuclidean", "discrete"), ("euclidean", "discrete"), ("manhattan", "discrete"),
    ("threshold", "discrete"), ("matrix", "discrete"),
])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weights=st.sampled_from(["positive", "some-zero", "all-zero", "stacked"]),
       n_fixed=st.integers(0, 3), spread=st.integers(0, 3), restarts=st.integers(1, 5), group=st.integers(0, 2),
       far_sites=st.booleans(), capacity=st.booleans())
def test_solve_and_sweep_seed_as_the_reference_loop(kind, placement, seed, weights, n_fixed, spread, restarts, group,
                                                    far_sites, capacity):
    # Every restart of a solve and of a sweep gets the seeds of a plain
    # one-restart loop from its stream, leaves its generator where that loop
    # does and, under discrete placement where the first allocation is the
    # nearest assignment, starts from each point's nearest seed (ties to the
    # lowest index) and its distance; every other restart gets no start, and
    # an uncapacitated continuous solve still gives the reference's answer.
    # ``group`` > 0 runs the lockstep draws in groups of that many restarts.
    k_lo = max(1, n_fixed)
    problem = _oracle_problem(seed, kind, placement, weights, n_fixed, k_lo + spread, far_sites, capacity)
    ks = list(range(k_lo, problem.k + 1))
    config = SolverConfig(restarts=restarts, rng_seed=seed % 1000)
    runs, built = [], []
    real_sequences = solver._sequences

    def sequencing(problem, cfg):
        built.append(real_sequences(problem, cfg))
        return built[-1]

    def descending(problem, centers, cfg, *, start):
        runs.append((problem, centers, start, [rng.bit_generator.state for group in built[-1] for rng in group.rngs]))
        raise _Seeded("seeded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_sequences", sequencing)
        mp.setattr(selection, "_sequences", sequencing)
        mp.setattr(solver, "descend", descending)
        if group:
            mp.setattr(solver, "_LOCKSTEP_CELLS", group * problem.n)
        for k in ks:
            with pytest.raises(_Seeded):
                solve(_with_k(problem, k), config)
        assert sorted(sweep_k(problem, ks, [0.0], config).errors) == ks
    assert len(built) == len(ks) + 1  # one set per solve, and one for the whole sweep
    for groups in built:
        sizes = [len(g.rngs) for g in groups]
        assert sum(sizes) == restarts and all(size == (group or restarts) for size in sizes[:-1])
    assert [run[0].k for run in runs] == ks * 2
    for prob, centers, starts, states in runs:
        assert solver._allocates_nearest_labels(prob) == (not capacity)
        assert (starts is None) == capacity
        for r, stream in enumerate(np.random.SeedSequence(config.rng_seed).spawn(restarts)):
            rng = np.random.default_rng(stream)
            expect = reference_kmeanspp(prob, rng)
            assert np.array_equal(centers[r], expect)
            assert states[r] == rng.bit_generator.state
            if capacity or placement == "continuous":
                assert starts is None or starts[r] is None
                continue
            labels, best, totals = starts[r]
            D = reference_distances(prob, expect)
            assert np.array_equal(labels, np.argmin(D, axis=1)) and np.array_equal(best, D.min(axis=1))
            # The kept site totals are those of a fresh product, to rounding.
            S, w = prob.site_costs, prob.effective_weights
            masses = np.zeros((prob.k, prob.n))
            masses[labels, np.arange(prob.n)] = w
            assert np.all(np.abs(totals - masses @ S) <= 1e-12 * w.sum() * S.max())
    if placement == "continuous" and not capacity:
        assert_same_solution(solve(problem, config), reference_solve(problem, config))


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_seeding_runs_out_of_sites_as_the_reference_loop(monkeypatch, shared):
    # Every point snaps to site 0 or 1 of five, and site 3 is fixed; once
    # sites 0 and 1 are taken the next seeds are the lowest free sites, and a
    # sixth center has no site left.  The six-center problem is not
    # validated, which would refuse k above the number of sites.
    xy = np.random.default_rng(3).uniform(0, 10, size=(8, 2))
    sites = np.array([[2.0, 2.0], [8.0, 8.0], [5000.0, 0.0], [6000.0, 0.0], [7000.0, 0.0]])
    points = tuple(Point(i, coords=tuple(xy[i])) for i in range(8))
    problem = validate_problem(Problem(points=points, metric=euclidean(),
                                       centers=CenterSpec(k=5, placement="discrete", candidates=sites, fixed=(3,))))
    assert set(problem.nearest_site.tolist()) == {0, 1}
    too_many = replace(problem, centers=replace(problem.centers, k=6))
    config = SolverConfig(restarts=4, rng_seed=3)
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.restarts)
    if shared:  # the restarts of a solve, in two lockstep groups, drawn on from five centers to six
        monkeypatch.setattr(solver, "_LOCKSTEP_CELLS", 2 * problem.n)
        groups = solver._sequences(problem, config)
        assert [len(group.rngs) for group in groups] == [2, 2]
        rngs = [rng for group in groups for rng in group.rngs]
        got = np.concatenate([group.first(5) for group in groups])
        run_out = [group.first for group in groups]
    else:
        rngs = [np.random.default_rng(stream) for stream in streams]
        got = [kmeanspp_init(problem, rng) for rng in rngs]
        run_out = [lambda k, stream=stream: kmeanspp_init(too_many, np.random.default_rng(stream))
                   for stream in streams]
    for r, stream in enumerate(streams):
        ref = np.random.default_rng(stream)
        assert np.array_equal(got[r], reference_kmeanspp(problem, ref))
        assert rngs[r].bit_generator.state == ref.bit_generator.state
        with pytest.raises(NotEnoughDistinctSites) as expect:
            reference_kmeanspp(too_many, np.random.default_rng(stream))
        assert str(expect.value) == "cannot place 6 centers on 5 sites"
    for seeds in run_out:
        with pytest.raises(NotEnoughDistinctSites) as err:
            seeds(6)
        assert str(err.value) == str(expect.value)


@pytest.mark.parametrize("case", ["continuous-fixed", "discrete-fixed"])
def test_solve_prices_the_fixed_seeds_once_per_lockstep_group(monkeypatch, case):
    # Seven restarts in groups of four and three: the fixed seeds' distances,
    # and a tracked discrete group's first site totals, are computed once per
    # group, not once per restart.
    base, _ = _seeding_problem(case)
    m = base.centers.n_fixed
    fixed, geometric, totals = np.array(base.centers.fixed), [], []
    real_geometric, real_add = solver.metrics.geometric_distances, solver.add_mass_change
    monkeypatch.setattr(solver.metrics, "geometric_distances",
                        lambda kind, xy, *a: geometric.append(np.array(xy)) or real_geometric(kind, xy, *a))
    monkeypatch.setattr(solver, "add_mass_change", lambda T, *a: totals.append(T.shape) or real_add(T, *a))
    monkeypatch.setattr(solver, "_LOCKSTEP_CELLS", 4 * base.n)

    def descending(*args, **kwargs):
        raise _Seeded("seeded")

    monkeypatch.setattr(solver, "descend", descending)
    with pytest.raises(_Seeded):
        solve(_with_k(base, m + 3), SolverConfig(restarts=7, rng_seed=4))
    if case == "continuous-fixed":
        assert sum(xy.shape == fixed.shape and np.array_equal(xy, fixed) for xy in geometric) == 2
        assert not totals
    else:
        assert totals.count((m, base.site_costs.shape[1])) == 2


def test_descend_takes_no_model_keyword():
    # A capacitated descent builds its own allocation model.
    points = blob_points(np.random.default_rng(45), [(0, 0), (6, 1), (3, 6)], per=10)
    prob = continuous_problem(points, k=2, capacity=(0.0, 20.0))
    with pytest.raises(TypeError, match="model"):
        descend(prob, kmeanspp_init(prob, np.random.default_rng(0)), SolverConfig(), model=None)


@pytest.mark.parametrize("case", ["discrete-fixed", "continuous"])
def test_sweep_draws_each_restart_seeds_once(monkeypatch, case):
    base, k_max = _seeding_problem(case)
    draws, real = [], solver._draws
    monkeypatch.setattr(solver, "_draws", lambda rngs, *a: draws.extend(rngs) or real(rngs, *a))
    config = SolverConfig(restarts=3, rng_seed=2)
    report = sweep_k(base, range(base.k, k_max + 1), [0.0], config)
    assert not report.errors
    assert 0 < len(draws) <= config.restarts * (k_max - base.centers.n_fixed)


def _seeded_start_problem(case):
    """A discrete problem whose descents start from the nearest assignment, and the largest k to sweep it to.

    Twelve points have w' = 0.  "integer" has whole-number costs and
    weights, so the kept totals are exact and many distances tie; it also
    has a fixed site with a finite release penalty and an outlier column,
    which the far point takes.  "float" has the same costs unrounded,
    "geometric" Euclidean distances to candidate sites (two of them fixed),
    and "plain" the whole numbers without a fixed site or an outlier column.
    """
    rng = np.random.default_rng(43)
    xy = np.vstack([rng.uniform([0, 0], [9, 7], size=(70, 2)), [[30.0, 30.0]]])
    pts = tuple(Point(i, coords=(float(x), float(y)), w=0.0 if 50 <= i < 62 else float(rng.integers(1, 6)))
                for i, (x, y) in enumerate(xy))
    sites = np.vstack([rng.uniform(-1, 10, size=(24, 2)), [[50.0, 50.0]]])
    S = np.sqrt(((xy[:, None] - sites[None]) ** 2).sum(axis=2))
    fixed = {"fixed": (2,), "release_penalty": 5.0}
    metric, kw, center_kw = {
        "integer": (matrix_metric(np.ceil(S)), {"outlier_penalty": 6.0}, fixed),
        "float": (matrix_metric(S), {"outlier_penalty": 6.0}, fixed),
        "geometric": (euclidean(), {"outlier_penalty": 5.0},
                      {"candidates": sites, "fixed": (3, 7), "release_penalty": 5.0}),
        "plain": (matrix_metric(np.ceil(S)), {}, {}),
    }[case]
    k = max(2, len(center_kw.get("fixed", ())))
    prob = validate_problem(Problem(points=pts, metric=metric, **kw,
                                    centers=CenterSpec(k=k, placement="discrete", **center_kw)))
    return prob, 14


SEEDED_START_CASES = ["integer", "float", "geometric", "plain"]


@pytest.mark.parametrize("case", SEEDED_START_CASES)
def test_seeding_keeps_each_points_nearest_seed_and_the_site_totals(case):
    base, k_max = _seeded_start_problem(case)
    S, w = base.site_costs, base.effective_weights
    ties = emptied = 0
    # One tracked group of four draw sequences, drawn on together from k to k as in a sweep.
    batch = solver._SeedBatch(base, [np.random.default_rng(seed) for seed in range(4)], track=True)
    for k in range(base.k, k_max + 1):
        batch.advance(k)
        for seed, start in enumerate(batch.starts(k)):
            sites = batch.first(k)[seed]
            assert np.array_equal(sites, kmeanspp_init(_with_k(base, k), np.random.default_rng(seed)))
            labels, best, totals = start  # what solve hands descend
            D = S[:, sites]
            assert np.array_equal(labels, np.argmin(D, axis=1))  # ties to the lowest index
            assert np.array_equal(best, D.min(axis=1))
            masses = np.zeros((k, base.n))
            masses[labels, np.arange(base.n)] = w
            fresh = masses @ S
            if case == "float" or case == "geometric":
                assert np.all(np.abs(totals - fresh) <= 1e-12 * fresh)
            else:
                assert np.array_equal(totals, fresh)
            ties += int(((D == D.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
            emptied += int((~masses.any(axis=1)).sum())  # seeds left without a point with w' > 0
    assert ties or case in ("float", "geometric")
    assert emptied or case == "float"


@pytest.mark.parametrize("case", ["integer", "plain"])
def test_sweep_solutions_equal_standalone_solves_on_integer_data(case):
    base, k_max = _seeded_start_problem(case)
    config = SolverConfig(restarts=3, rng_seed=5)
    report = sweep_k(base, range(base.k, k_max + 1), [0.0], config)
    assert sorted(report.solutions) == list(range(base.k, k_max + 1))
    for k, got in report.solutions.items():
        assert_same_solution(got, solve(_with_k(base, k), config))


@pytest.mark.parametrize("case", SEEDED_START_CASES)
def test_sweep_descents_skip_their_first_allocation_and_full_product(monkeypatch, case):
    # Inside a sweep every descent takes its first assignment and site
    # totals from its draw sequence: it makes one allocate call fewer than
    # the same descent alone, and its first location step takes in only the
    # points sent to the outlier column, where alone it takes in all n.
    # Discrete descents run one after another, so each call below is the
    # latest descent's.
    base, k_max = _seeded_start_problem(case)
    real_descent, real_allocate, real_update = solver._descent, solver.allocate, solver.update_center_discrete
    runs = []  # per descent: its arguments, allocate calls and the rows of its first location step

    def descending(problem, centers0, config, model, start):
        run = {"args": (problem, centers0, config), "allocate": 0, "rows": None}
        runs.append(run)
        run["solution"] = yield from real_descent(problem, centers0, config, model, start)
        return run["solution"]

    def allocating(*args, **kwargs):
        runs[-1]["allocate"] += 1
        return real_allocate(*args, **kwargs)

    def locating(site_distances, masses, **kwargs):
        if runs[-1]["rows"] is None:
            runs[-1]["rows"] = kwargs["rows"]
        return real_update(site_distances, masses, **kwargs)

    monkeypatch.setattr(solver, "allocate", allocating)
    monkeypatch.setattr(solver, "update_center_discrete", locating)
    monkeypatch.setattr(solver, "_descent", descending)
    sweep_k(base, range(base.k, k_max + 1), [0.0], SolverConfig(restarts=3, rng_seed=6))
    swept = runs[:]
    assert len(swept) == 3 * (k_max - base.k + 1)
    w = base.effective_weights
    outliers = 0
    for run in swept:
        problem, centers0, config = run["args"]
        D = base.site_costs[:, centers0]
        sent_out = (w > 0) & (D.min(axis=1) > (problem.outlier_penalty or np.inf))
        assert np.array_equal(run["rows"], np.flatnonzero(sent_out))
        outliers += int(sent_out.sum())
        descend(problem, centers0, config)
        for got, calls in ((run, run["allocate"] + 1), (runs[-1], runs[-1]["allocate"])):
            diag = got["solution"].diagnostics  # an unchanged last step needs no final allocation
            assert calls == diag["iterations"] + (diag["stop"] != "centers_unchanged")
        assert np.array_equal(runs[-1]["rows"], np.arange(base.n))
    assert outliers or case == "plain"


def _guarded_problem(case):
    """A discrete problem whose descents must not start from their draw sequence, and the largest k to sweep it to.

    Its first allocation is not the labelled nearest assignment: a capacity
    window (fractional or hard membership), fractional membership, or one
    point with q = 2.
    """
    rng = np.random.default_rng(44)
    xy = rng.uniform([0, 0], [9, 7], size=(40, 2))
    q2 = case == "q2"
    pts = tuple(Point(i, coords=(float(x), float(y)), w=float(rng.integers(1, 6)), q=2 if q2 and i == 5 else 1)
                for i, (x, y) in enumerate(xy))
    sites = rng.uniform(-1, 10, size=(16, 2))
    S = np.sqrt(((xy[:, None] - sites[None]) ** 2).sum(axis=2))
    total = sum(p.w for p in pts)
    kw = {
        "capacity-fractional": {"capacity": (0.0, 0.6 * total), "membership": "fractional"},
        "capacity-hard": {"capacity": (0.0, 0.6 * total), "membership": "hard"},
        "fractional": {"membership": "fractional", "outlier_penalty": 6.0},
        "q2": {"outlier_penalty": 6.0},
    }[case]
    prob = validate_problem(Problem(points=pts, metric=matrix_metric(S), **kw,
                                    centers=CenterSpec(k=2, placement="discrete", fixed=(1,), release_penalty=4.0)))
    return prob, 5


@pytest.mark.parametrize("case", ["capacity-fractional", "capacity-hard", "fractional", "q2"])
def test_sweep_descents_without_a_nearest_first_allocation_start_as_alone(monkeypatch, case):
    # These descents start from an allocation, as a standalone solve's do,
    # and the sweep gives the same answers.
    base, k_max = _guarded_problem(case)
    config = SolverConfig(restarts=3, rng_seed=7)
    allocations = _counting(monkeypatch, solver, "allocate")
    report = sweep_k(base, range(base.k, k_max + 1), [0.0], config)
    swept_allocations = len(allocations)
    assert sorted(report.solutions) == list(range(base.k, k_max + 1))
    del allocations[:]
    for k, got in report.solutions.items():
        assert_same_solution(got, solve(_with_k(base, k), config))
    assert swept_allocations == len(allocations)


def test_descend_ignores_the_seeding_cache(monkeypatch):
    # Only solve hands a descent its start: a descent from exactly the sites
    # of a tracked draw sequence, while its group is alive, allocates first
    # as it does alone.
    base, _ = _seeded_start_problem("integer")
    problem = _with_k(base, 4)
    sites = kmeanspp_init(problem, np.random.default_rng(3))
    alone = descend(problem, sites, SolverConfig())
    real, allocated = solver.allocate, []
    monkeypatch.setattr(solver, "allocate",
                        lambda prob, centers, *a, **kw: allocated.append(np.array(centers)) or real(prob, centers, *a, **kw))
    batch = solver._SeedBatch(problem, [np.random.default_rng(3)], track=True)
    assert np.array_equal(batch.first(4)[0], sites) and batch.starts(4)[0] is not None
    got = descend(problem, sites, SolverConfig())
    assert_same_solution(got, alone)
    assert np.array_equal(allocated[0], sites)
    assert len(allocated) == got.diagnostics["iterations"] + (got.diagnostics["stop"] != "centers_unchanged")


@pytest.mark.parametrize("in_sweep", [False, True], ids=["solve", "sweep"])
@pytest.mark.parametrize("placement", ["discrete", "continuous", "capacitated"])
def test_solve_calls_kmeanspp_init_then_descend_once_per_restart(monkeypatch, placement, in_sweep):
    # The benchmark's tracer times one descend per solve, which runs every
    # restart, and reads the counts of the Solution descend returns: the
    # winning restart's.  Its restarts start from the seeds kmeanspp_init
    # draws from each restart's stream, taken from lockstep groups of draw
    # sequences built once per solve, or once for a whole sweep.
    if placement == "discrete":
        base, _ = _seeded_start_problem("integer")
    else:
        points = blob_points(np.random.default_rng(45), [(0, 0), (6, 1), (3, 6)], per=10)
        base = continuous_problem(points, k=2, capacity=(0.0, 20.0) if placement == "capacitated" else None)
    config = SolverConfig(restarts=3, rng_seed=9)
    calls = []
    real_sequences, real_descend = solver._sequences, solver.descend

    def sequencing(*args):
        calls.append(("_sequences", args, {}, real_sequences(*args)))
        return calls[-1][3]

    def descending(*args, **kwargs):
        calls.append(("descend", args, kwargs, real_descend(*args, **kwargs)))
        return calls[-1][3]

    monkeypatch.setattr(solver, "_sequences", sequencing)
    monkeypatch.setattr(selection, "_sequences", sequencing)
    monkeypatch.setattr(solver, "descend", descending)
    ks = [2, 3, 4] if in_sweep else [base.k]
    if in_sweep:
        winners = sweep_k(base, ks, [0.0], config).solutions
        assert sorted(winners) == ks
    else:
        winners = {base.k: solve(base, config)}
    assert [name for name, *_ in calls] == ["_sequences", "descend"] + ["descend"] * (len(ks) - 1)
    (_, (built_for, built_config), _, groups), *descents = calls
    assert built_config is config and sum(len(group.rngs) for group in groups) == config.restarts
    for k, (_, args, kwargs, got) in zip(ks, descents):
        problem = args[0]
        assert problem.k == k and problem.shared is built_for.shared
        assert len(args) == 3 and args[2] is config
        streams = np.random.SeedSequence(config.rng_seed).spawn(config.restarts)
        assert np.array_equal(args[1], np.stack([kmeanspp_init(problem, np.random.default_rng(s)) for s in streams]))
        assert list(kwargs) == ["start"]
        # A descent is handed its draw sequence's start exactly when it is
        # discrete and its first allocation is the nearest assignment.
        starts = kwargs["start"] or [None] * config.restarts
        assert len(starts) == config.restarts
        assert all((start is not None) == (placement == "discrete") for start in starts)
        assert solver._allocates_nearest_labels(problem) == (placement != "capacitated")
        if placement == "continuous":  # without a start, still the reference's answer
            assert_same_solution(got, reference_solve(problem, config))
        assert got is winners[k]
        assert got.diagnostics["restarts"] == config.restarts
        assert {"iterations", "empty_reseeds"} <= got.diagnostics.keys() and got.diagnostics["iterations"] >= 1


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


@pytest.mark.parametrize("outlier", [None, 2.0])
@pytest.mark.parametrize("placement", ["continuous", "discrete"])
def test_uncapacitated_hard_solve_builds_no_dense_memberships(placement, outlier):
    # With every q_i = 1 the descent reads only the labels; y is built when a caller reads it.
    rng = np.random.default_rng(14)
    pts = blob_points(rng, [(0, 0), (6, 1), (3, 6)], per=20)
    sites = rng.uniform(-1.0, 7.0, size=(12, 2))
    center_kw = {"placement": "discrete", "candidates": sites} if placement == "discrete" else {}
    prob = continuous_problem(pts, outlier_penalty=outlier, center_kw=center_kw)
    assignment = solve(prob, SolverConfig(restarts=3, rng_seed=2)).assignment
    assert assignment.labels is not None
    assert "y" not in vars(assignment)
    assert np.array_equal(assignment.y, np.eye(assignment.columns)[assignment.labels])


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


@pytest.mark.parametrize("totals, winner", [
    ([100.0, np.nextafter(100.0, 0.0), np.nextafter(np.nextafter(100.0, 0.0), 0.0)], 0),
    ([np.nextafter(100.0, 200.0), 100.0, np.nextafter(100.0, 200.0)], 0),
    ([100.0, 100.0 * (1 - 2e-12), np.nextafter(100.0 * (1 - 2e-12), 0.0)], 1),
    ([100.0, np.nextafter(100.0, 0.0), 100.0 * (1 - 3e-12)], 2),
], ids=["ulps-down", "ulps-up", "lower-by-more", "drops-earlier-ties"])
def test_restart_totals_within_rounding_tie_to_the_lowest_index(monkeypatch, totals, winner):
    from capclust.model import ObjectiveBreakdown, Solution

    script = list(totals)

    def scripted(problem, centers, config, model, start):
        r = len(totals) - len(script)
        return Solution(centers=np.array([r]), assignment=None, released=frozenset(),
                        objective=ObjectiveBreakdown(script.pop(0), 0.0, 0.0, 0.0))
        yield  # a descent that ends before any location step

    monkeypatch.setattr(solver, "_descent", scripted)
    pts = tuple(Point(i, coords=(float(i), 0.0)) for i in range(4))
    sol = solve(continuous_problem(pts, k=1), SolverConfig(restarts=len(totals)))
    assert sol.diagnostics["best_restart"] == winner
    assert sol.centers.tolist() == [winner]
    assert sol.diagnostics["restart_objectives"] == totals


def test_best_restart_reads_each_total_once_among_many_ties():
    # 2,000 restarts whose totals all lie within the tie rule of the lowest,
    # and 500 above it, come in a shuffled order: the winner is the lowest
    # index among the ties, and each total is read a bounded number of times.
    from capclust.model import ObjectiveBreakdown, Solution

    reads = []

    class Counted(ObjectiveBreakdown):
        @property
        def total(self):
            reads.append(1)
            return self.distance_term

    rng = np.random.default_rng(31)
    totals = 100.0 * (1.0 + rng.uniform(0.0, 0.5e-12, size=2500))
    totals[rng.permutation(2500)[:500]] += 1.0
    outcomes = [(r, Solution(centers=np.array([r]), assignment=None, released=frozenset(),
                             objective=Counted(float(t), 0.0, 0.0, 0.0))) for r, t in enumerate(totals)]
    order = rng.permutation(2500)
    best = solver._best_restart([outcomes[r] for r in order], 2500)
    lowest = totals.min()
    winner = int(np.flatnonzero(totals <= lowest + solver.RESTART_TIE_RTOL * lowest)[0])
    assert best.diagnostics["best_restart"] == winner and best.centers.tolist() == [winner]
    assert best.diagnostics["restart_objectives"] == totals.tolist()
    assert len(reads) <= 2 * len(totals)


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
    rng = np.random.default_rng(30)
    pts = blob_points(rng, [(0, 0), (9, 0), (4, 8)], per=20)
    prob = continuous_problem(pts, metric=euclidean())
    clusters = []  # the clusters of each batched location update
    update = solver.update_centers_continuous
    monkeypatch.setattr(solver, "update_centers_continuous",
                        lambda kind, xy, masses, starts: clusters.append(len(starts)) or update(kind, xy, masses, starts))
    sol = descend(prob, np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 2.0]]), SolverConfig())
    iterations = sol.diagnostics["iterations"]
    assert iterations >= 2
    assert sum(clusters) < prob.k * iterations


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
             for name in ("update_centers_continuous", "update_center_discrete")]
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

    def scripted(problem, centers, time_budget=None, *, distances=None, model=None):
        y = script.pop(0) if script else split
        return Assignment(y=y, has_outlier=False)

    monkeypatch.setattr(solver, "allocate", scripted)
    sol = descend(prob, np.array([[10.0, 0.0], [0.5, 0.0]]),
                  SolverConfig(max_iterations=3, convergence_tol=-np.inf))
    trace = sol.diagnostics["center_trace"]
    assert sol.diagnostics["empty_reseeds"] == 1
    assert trace[0][1].tolist() == [1.0, 0.0]
    assert trace[1][1].tolist() == [0.0, 0.0]
    assert trace[2][1].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("with_labels", [False, True])
def test_a_center_empty_twice_is_reseeded_twice(monkeypatch, with_labels):
    # Cluster 1 is empty in two iterations in a row: its (empty) input
    # repeats, but the center it holds is a reseed, so it is reseeded again.
    from capclust import solver
    from capclust.model import Assignment

    pts = (Point(0, coords=(0.0, 0.0)), Point(1, coords=(2.0, 0.0)),
           Point(2, coords=(10.0, 0.0)), Point(3, coords=(12.0, 0.0)))
    prob = continuous_problem(pts, k=2)
    split, merged = [1, 1, 0, 0], [0, 0, 0, 0]
    script = [split, merged, merged]

    def scripted(problem, centers, time_budget=None, *, distances=None, model=None):
        labels = np.array(script.pop(0) if script else split)
        return Assignment(y=np.eye(2)[labels], has_outlier=False, labels=labels if with_labels else None)

    monkeypatch.setattr(solver, "allocate", scripted)
    sol = descend(prob, np.array([[10.0, 0.0], [0.5, 0.0]]),
                  SolverConfig(max_iterations=3, convergence_tol=-np.inf))
    assert sol.diagnostics["empty_reseeds"] == 2


@pytest.mark.parametrize("max_iterations", [1, 6])
def test_truncated_allocation_never_raises_the_objective(monkeypatch, max_iterations):
    # From its second call on, HiGHS's MIP stops as if on the budget with a
    # costlier incumbent (its optimum with the centers rolled) and the greedy
    # one fails: the descent must keep the previous assignment, in the loop
    # (6 iterations) and in the final re-allocation (1 iteration).
    from dataclasses import replace

    import scipy.optimize

    from capclust import allocation

    rng = np.random.default_rng(12)
    pts = blob_points(rng, [(0, 0), (6, 0), (3, 5)], per=12)
    pts = tuple(replace(p, a=float(a)) for p, a in zip(pts, rng.uniform(0.5, 2.0, size=len(pts))))
    mean_load = sum(p.a for p in pts) / 3
    prob = continuous_problem(pts, k=3, membership="hard", capacity=(0.99 * mean_load, 1.01 * mean_load))
    real = scipy.optimize.milp
    calls = []

    def truncated(c, **kw):
        got = real(c, **kw)
        calls.append(got)
        if len(calls) < 2:
            return got
        rolled = np.roll(got.x.reshape(prob.n, prob.k), 1, axis=1).ravel()
        return scipy.optimize.OptimizeResult(status=1, x=rolled, mip_gap=0.5, mip_node_count=1, message="time limit reached")

    monkeypatch.setattr(scipy.optimize, "milp", truncated)
    monkeypatch.setattr(allocation, "_greedy_incumbent", lambda problem, D: None)
    sol = descend(prob, np.array([[1.0, 1.0], [5.0, 1.0], [3.0, 4.0]]),
                  SolverConfig(max_iterations=max_iterations, convergence_tol=-np.inf))
    trace = sol.diagnostics["objective_trace"]
    assert len(calls) >= 2
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert sol.objective.total == min(trace)


def test_zero_budget_descent_survives_later_allocations():
    # With no time for HiGHS, the greedy incumbent fails from the second
    # allocation on; the model's last assignment must carry the descent.
    rng = np.random.default_rng(1)
    n, k = int(rng.integers(20, 60)), int(rng.integers(3, 7))
    xy = rng.uniform(0, 100, (n, 2))
    a = rng.integers(1, 6, n)
    s = float(rng.choice([0.02, 0.05, 0.1]))
    mean_load = a.sum() / k
    pts = tuple(Point(i, coords=tuple(xy[i]), a=float(a[i])) for i in range(n))
    prob = continuous_problem(pts, k=k, membership="hard", capacity=((1 - s) * mean_load, (1 + s) * mean_load))
    sol = descend(prob, kmeanspp_init(prob, np.random.default_rng(1)), SolverConfig(time_budget=0.0))
    trace = sol.diagnostics["objective_trace"]
    assert sol.diagnostics["iterations"] >= 2
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("membership", ["fractional", "hard"])
def test_problem_checks_run_once_per_descent(monkeypatch, membership):
    from capclust import allocation

    prob = _capacitated_blobs(membership)
    checks = [_counting(monkeypatch, allocation, name) for name in ("_check_coverage", "_aggregate_certificate")]
    allocation.lp_model(prob)
    per_model = [len(calls) for calls in checks]
    sol = descend(prob, kmeanspp_init(prob, np.random.default_rng(3)), SolverConfig())
    assert sol.diagnostics["iterations"] >= 2
    assert per_model[0] == 1
    assert [len(calls) for calls in checks] == [2 * count for count in per_model]


@pytest.mark.parametrize("membership", ["fractional", "hard"])
def test_problem_checks_run_once_per_solve(monkeypatch, membership):
    from capclust import allocation

    prob = _capacitated_blobs(membership)
    checks = [_counting(monkeypatch, allocation, name) for name in ("_check_coverage", "_aggregate_certificate")]
    allocation.lp_model(prob)
    per_model = [len(calls) for calls in checks]
    descents = _counting(monkeypatch, solver, "_descent")
    solve(prob, SolverConfig(restarts=4, rng_seed=3))
    assert len(descents) == 4
    assert [len(calls) for calls in checks] == [2 * count for count in per_model]


def test_emptied_centers_take_distinct_free_sites():
    # Two tight groups and two far sites: both far centers empty at once and
    # must not both land on the costliest point's site, held by another center.
    xy = np.array([[0, 0], [0.1, 0], [0, 0.1], [10, 0], [10.1, 0], [10, 0.1]])
    sites = np.array([[0, 0.05], [10, 0.05], [50, 50], [60, 60]])
    D = np.sqrt(((xy[:, None] - sites[None]) ** 2).sum(axis=2))
    prob = validate_problem(Problem(points=tuple(Point(i) for i in range(6)), metric=matrix_metric(D),
                                    centers=CenterSpec(k=4, placement="discrete")))
    sol = descend(prob, np.array([0, 1, 2, 3]), SolverConfig())
    assert sorted(sol.centers.tolist()) == [0, 1, 2, 3]
    assert sol.diagnostics["empty_reseeds"] == 2


def test_a_moving_fixed_cluster_prices_its_update_once(monkeypatch):
    # Every moving cluster prices its update once (the monotone guard), a
    # fixed one too: its release gain reads its cost at the fixed location
    # from the descent's distances, so no location call prices it there.
    from capclust import location

    pts = blob_points(np.random.default_rng(32), [(0, 0), (7, 0), (3, 6), (9, 7)], per=30)
    prob = continuous_problem(pts, metric=euclidean(), k=5, outlier_penalty=2.0,
                              center_kw={"fixed": ((3.0, 3.0), (8.0, 1.0)), "release_penalty": 6.0})
    fixed = [np.asarray(f) for f in prob.centers.fixed]
    batches = []  # per batched location update: each cluster's locations priced after it
    update, cost = location.update_centers_continuous, location.cluster_costs_continuous

    def clusters(xy, masses, starts):
        ends = [*starts[1:], len(xy)]
        return [(xy[a:b].tobytes(), masses[a:b].tobytes()) for a, b in zip(starts, ends)]

    def updating(kind, xy, masses, starts):
        batches.append({key: [] for key in clusters(xy, masses, starts)})
        return update(kind, xy, masses, starts)

    def pricing(kind, xy, masses, starts, locations):
        for key, at in zip(clusters(xy, masses, starts), locations):
            batches[-1][key].append(np.asarray(at, dtype=float))
        return cost(kind, xy, masses, starts, locations)

    real_decide, weighed = solver.decide_release, []
    monkeypatch.setattr(solver, "update_centers_continuous", updating)
    monkeypatch.setattr(solver, "cluster_costs_continuous", pricing)
    monkeypatch.setattr(solver, "decide_release", lambda *args: weighed.append(1) or real_decide(*args))
    for seed in range(3):
        descend(prob, kmeanspp_init(prob, np.random.default_rng(seed)), SolverConfig())
    segments = [priced for batch in batches for priced in batch.values()]
    assert len(segments) > 0 and weighed
    assert all(len(seg) == 1 for seg in segments)
    assert not any(np.array_equal(loc, f) for seg in segments for loc in seg for f in fixed)


@pytest.mark.parametrize("placement, centers, error", [
    ("discrete", [99, 0, 1], ValidationError),
    ("discrete", [-1, 0, 1], ValidationError),
    ("discrete", [0.5, 1.7, 2.0], ValidationError),
    ("discrete", [[0], [1], [2]], ShapeMismatch),
    ("discrete", ["a", "b", "c"], ValidationError),
    ("continuous", [[math.nan, 0.0], [1.0, 1.0], [2.0, 0.0]], ValidationError),
    ("continuous", [[math.inf, 0.0], [1.0, 1.0], [2.0, 0.0]], ValidationError),
    ("continuous", np.zeros((3, 3)), ShapeMismatch),
    ("continuous", [0.0, 1.0, 2.0], ShapeMismatch),
], ids=["site-past-the-end", "negative-site", "fractional-sites", "site-column", "text-sites",
        "nan-coordinate", "inf-coordinate", "three-columns", "flat-coordinates"])
def test_descend_rejects_malformed_initial_centers(placement, centers, error):
    rng = np.random.default_rng(35)
    pts = blob_points(rng, [(0, 0), (6, 0)], per=5)
    center_kw = {"placement": "discrete", "candidates": rng.uniform(-1, 7, size=(6, 2))} if placement == "discrete" else {}
    prob = continuous_problem(pts, k=3, center_kw=center_kw)
    with pytest.raises(error):
        descend(prob, centers, SolverConfig())


def _label_cases():
    """(problem, initial centers) pairs whose descents take every branch of the location step.

    Points with w' = 0 sit between the blobs, so they change cluster as the
    centers move; fixed centers have a finite release penalty; far initial
    centers empty and are reseeded.
    """
    rng = np.random.default_rng(33)
    pts = blob_points(rng, [(0, 0), (7, 0), (3, 6), (9, 7)], per=25)
    between = [Point(1000 + i, coords=(float(x), float(y)), w=0.0)
               for i, (x, y) in enumerate(rng.uniform([0, 0], [9, 7], size=(12, 2)))]
    pts = pts + tuple(between) + (Point(2000, coords=(30.0, 30.0)),)
    free = continuous_problem(pts, metric=euclidean(), k=5, outlier_penalty=4.0,
                              center_kw={"fixed": ((3.0, 3.0), (8.0, 1.0)), "release_penalty": 6.0})
    for seed in range(3):
        yield free, kmeanspp_init(free, np.random.default_rng(seed))
    far = np.array([[3.0, 3.0], [8.0, 1.0], [0.5, 0.5], [60.0, 60.0], [70.0, -60.0]])
    yield free, far
    sq = continuous_problem(pts, metric=sqeuclidean(), k=4)
    yield sq, np.array([[1.0, 1.0], [6.0, 1.0], [4.0, 5.0], [80.0, 80.0]])
    sites = np.vstack([rng.uniform(-1, 10, size=(15, 2)), [[50.0, 50.0], [60.0, -40.0]]])
    discrete = validate_problem(Problem(points=pts, metric=euclidean(), outlier_penalty=5.0,
                                        centers=CenterSpec(k=5, placement="discrete", candidates=sites,
                                                           fixed=(2,), release_penalty=5.0)))
    for seed in range(3):
        yield discrete, kmeanspp_init(discrete, np.random.default_rng(seed))
    yield discrete, np.array([2, 0, 1, 15, 16])
    # Capacitated hard allocations carry labels too.
    capacitated = continuous_problem(pts, metric=euclidean(), k=4, capacity=(20.0, 40.0), membership="hard",
                                     outlier_penalty=4.0)
    yield capacitated, kmeanspp_init(capacitated, np.random.default_rng(0))
    capacitated = replace(discrete, capacity=(15.0, 40.0), membership="hard")
    yield capacitated, kmeanspp_init(capacitated, np.random.default_rng(0))


def _site_cost_cases():
    """Discrete descents on a cost matrix with every kind of mass change.

    Points with w' = 0 switch cluster, a far point goes to the outlier
    column, a fixed site has a finite release penalty, and far initial sites
    empty and are reseeded.
    """
    rng = np.random.default_rng(37)
    pts = tuple(Point(i, coords=(float(x), float(y)), w=float(rng.integers(1, 6)) if i < 150 else 0.0)
                for i, (x, y) in enumerate(rng.uniform([0, 0], [9, 7], size=(162, 2))))
    pts += (Point(2000, coords=(30.0, 30.0)),)
    xy = np.array([p.coords for p in pts])
    sites = np.vstack([rng.uniform(-1, 10, size=(40, 2)), [[50.0, 50.0], [60.0, -40.0]]])
    S = np.sqrt(((xy[:, None] - sites[None]) ** 2).sum(axis=2))
    prob = validate_problem(Problem(points=pts, metric=matrix_metric(S),
                                    outlier_penalty=6.0,
                                    centers=CenterSpec(k=8, placement="discrete", fixed=(2,), release_penalty=5.0)))
    for seed in range(6):
        yield prob, kmeanspp_init(prob, np.random.default_rng(seed))
    yield prob, np.array([2, 0, 1, 40, 41, 3, 4, 5])


def _kept_site_totals(monkeypatch, prob, centers0, labels):
    """A descent, and after each of its location steps the kept totals, a fresh product and the rows taken in.

    Without ``labels`` every assignment loses its labels, so the descent
    takes the dense path.
    """
    from capclust import allocation, location

    inputs, steps = [], []

    def allocating(*args, **kwargs):
        got = allocation.allocate(*args, **kwargs)
        inputs.append(got if labels else replace(got, labels=None))
        return inputs[-1]

    def locating(site_distances, masses, **kwargs):
        sites = location.update_center_discrete(site_distances, masses, **kwargs)
        fresh = (inputs[-1].center_block.T * prob.effective_weights) @ site_distances
        steps.append((kwargs["totals"].copy(), fresh, kwargs["rows"], inputs[-1]))
        return sites

    with monkeypatch.context() as patch:
        patch.setattr(solver, "allocate", allocating)
        patch.setattr(solver, "update_center_discrete", locating)
        sol = descend(prob, centers0, SolverConfig())
    return sol, steps


@pytest.mark.parametrize("labels", [True, False], ids=["labels", "dense"])
def test_kept_site_totals_agree_with_a_fresh_product_to_rounding(monkeypatch, labels):
    # The kept totals sum the terms of a fresh product in another order.
    for prob, centers0 in _site_cost_cases():
        _, steps = _kept_site_totals(monkeypatch, prob, centers0, labels)
        for totals, fresh, _, _ in steps:
            assert np.all(np.abs(totals - fresh) <= 1e-12 * fresh)


@pytest.mark.parametrize("labels", [True, False], ids=["labels", "dense"])
def test_kept_site_totals_multiply_only_the_rows_of_changed_points(monkeypatch, labels):
    # After a descent's first location step, the totals take in only the
    # points whose mass changed since their last step, and the rows of S of
    # all other points may be NaN without changing the descent.
    from capclust import location

    real = location.update_center_discrete

    def masked(site_distances, masses, *, rows, **kwargs):
        if len(rows) < len(site_distances):
            kept = np.full_like(site_distances, np.nan)
            kept[rows] = site_distances[rows]
            site_distances = kept
        return real(site_distances, masses, rows=rows, **kwargs)

    multiplied = full = 0
    for prob, centers0 in _site_cost_cases():
        plain, steps = _kept_site_totals(monkeypatch, prob, centers0, labels)
        masses = [y.center_block.T * prob.effective_weights for *_, y in steps]
        assert np.array_equal(steps[0][2], np.arange(prob.n))
        for (_, _, rows, _), old, new in zip(steps[1:], masses, masses[1:]):
            assert np.array_equal(rows, np.flatnonzero((old != new).any(axis=0)))
            multiplied += len(rows)
            full += prob.n
        with monkeypatch.context() as patch:
            patch.setattr(location, "update_center_discrete", masked)
            got, _ = _kept_site_totals(monkeypatch, prob, centers0, labels)
        assert got.diagnostics["objective_trace"] == plain.diagnostics["objective_trace"]
        assert all(np.array_equal(a, b) for a, b in zip(got.diagnostics["center_trace"],
                                                        plain.diagnostics["center_trace"]))
    assert 0 < multiplied < full / 4


@pytest.mark.parametrize("with_labels", [False, True])
def test_kept_site_totals_take_in_an_iteration_without_a_location_step(monkeypatch, with_labels):
    # In the second iteration points 2 and 3 go to the outlier column: only
    # cluster 1 changes, and it is empty, so it is reseeded and no location
    # step runs.  The third iteration's step must still see that change.
    from capclust import location
    from capclust.model import Assignment

    S = np.array([[0.0, 4.0, 9.0, 9.0], [1.0, 3.0, 8.0, 8.0], [9.0, 1.0, 0.0, 1.0], [8.0, 2.0, 3.0, 1.0]])
    prob = validate_problem(Problem(points=tuple(Point(i) for i in range(4)), metric=matrix_metric(S),
                                    outlier_penalty=5.0, centers=CenterSpec(k=2, placement="discrete")))
    split, out = [0, 0, 1, 1], [0, 0, 2, 2]
    script = [split, out, split]
    steps = []

    def scripted(problem, centers, time_budget=None, *, distances=None, model=None):
        labels = np.array(script.pop(0) if script else split)
        return Assignment(y=np.eye(3)[labels], has_outlier=True, labels=labels if with_labels else None)

    def locating(site_distances, masses, **kwargs):
        sites = location.update_center_discrete(site_distances, masses, **kwargs)
        steps.append(kwargs["totals"].copy())
        return sites

    monkeypatch.setattr(solver, "allocate", scripted)
    monkeypatch.setattr(solver, "update_center_discrete", locating)
    sol = descend(prob, np.array([1, 0]), SolverConfig(max_iterations=3, convergence_tol=-np.inf))
    assert [c.tolist() for c in sol.diagnostics["center_trace"]] == [[0, 3], [0, 2], [0, 3]]
    assert len(steps) == 2
    assert steps[1].tolist() == [[1.0, 7.0, 17.0, 17.0], [17.0, 3.0, 3.0, 2.0]]


def test_distance_columns_only_for_moved_centers(monkeypatch):
    # After the initial matrix (and, under continuous placement with fixed
    # centers that can be released, the distances to the fixed locations,
    # once), a descent
    # computes the distance columns of the centers that moved and no
    # others; the matrix it evaluates with stays equal to a full
    # recomputation.
    from capclust import metrics, solver

    full = metrics.distances_to_centers
    real_evaluate = solver.evaluate_parts
    asked = []

    def evaluating(problem, centers, assignment, released, *, distances=None):
        assert np.array_equal(distances, full(problem, centers))
        return real_evaluate(problem, centers, assignment, released, distances=distances)

    monkeypatch.setattr(metrics, "distances_to_centers", lambda problem, centers: asked.append(centers.copy())
                        or full(problem, centers))
    monkeypatch.setattr(solver, "evaluate_parts", evaluating)
    idle = with_fixed = 0
    never_released = continuous_problem(blob_points(np.random.default_rng(34), [(0, 0), (6, 1), (3, 6)], per=15),
                                        center_kw={"fixed": ((3.0, 3.0),)})  # an infinite release penalty
    cases = [*_label_cases(), (_capacitated_blobs("fractional"), np.array([[1.0, 1.0], [5.0, 1.0], [3.0, 5.0]])),
             (never_released, np.array([[3.0, 3.0], [1.0, 1.0], [5.0, 1.0]]))]
    for prob, centers0 in cases:
        asked.clear()
        sol = descend(prob, centers0, SolverConfig())
        assert np.array_equal(asked.pop(0), centers0)
        if prob.centers.n_fixed and prob.centers.placement != "discrete" and np.isfinite(prob.centers.release_penalty):
            assert np.array_equal(asked.pop(0), np.array(prob.centers.fixed))
            with_fixed += 1
        expected, before = [], np.asarray(centers0)
        for after in sol.diagnostics["center_trace"]:
            moved = after != before if after.ndim == 1 else (after != before).any(axis=1)
            if moved.any():
                expected.append(after[moved])
            idle += not moved.any()
            before = after
        assert len(asked) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(asked, expected))
    assert idle and with_fixed


def test_the_solver_takes_every_distance_from_distances_to_centers():
    # One distance rule: the solver neither calls the geometric kernel nor
    # gathers site-cost columns itself, so seeding and descent read the
    # same values.
    tree = ast.parse(Path(solver.__file__).read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert "distances_to_centers" in names
    assert not names & {"geometric_distances", "site_cost_columns"}


def _capacitated_blobs(membership, outlier=None):
    rng = np.random.default_rng(40)
    pts = blob_points(rng, [(0, 0), (6, 1), (3, 6)], per=15)
    return continuous_problem(pts, metric=sqeuclidean(), capacity=(12.0, 18.0), membership=membership,
                              outlier_penalty=outlier)


def _count_models(monkeypatch):
    """Count the allocation models built from now on."""
    from capclust import allocation

    built = []

    class Counting(allocation._AllocationLP):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(allocation, "_AllocationLP", Counting)
    return built


@pytest.mark.parametrize("membership", ["fractional", "hard"])
def test_descend_builds_one_lp_model(monkeypatch, lp_binding, membership):
    from capclust import allocation, solver

    built, passed = _count_models(monkeypatch), []

    def spy(*args, model=None, **kwargs):
        passed.append(model)
        return allocation.allocate(*args, model=model, **kwargs)

    monkeypatch.setattr(solver, "allocate", spy)
    prob = _capacitated_blobs(membership)
    sol = descend(prob, kmeanspp_init(prob, np.random.default_rng(3)), SolverConfig())
    assert sol.diagnostics["iterations"] >= 2
    assert len(built) == 1
    assert len(passed) >= 2 and all(model is passed[0] for model in passed)
    assert isinstance(passed[0], allocation._AllocationLP)


@pytest.mark.parametrize("membership", ["fractional", "hard"])
def test_solve_builds_one_lp_model(monkeypatch, lp_binding, membership):
    built = _count_models(monkeypatch)
    descents = _counting(monkeypatch, solver, "_descent")
    sol = solve(_capacitated_blobs(membership), SolverConfig(restarts=4, rng_seed=8))
    assert len(descents) == 4 and not sol.diagnostics["restart_failures"]
    assert len(built) == 1


def test_sweep_builds_one_lp_model_per_k(monkeypatch):
    built = _count_models(monkeypatch)
    prob = replace(_capacitated_blobs("fractional"), capacity=(5.0, 30.0))
    report = sweep_k(prob, range(2, 5), [0.0], SolverConfig(restarts=3, rng_seed=8))
    assert sorted(report.solutions) == [2, 3, 4]
    assert len(built) == 3


def _tied_matrix_problem(membership):
    """Integer site costs: the allocation LP has many optima, and a warm basis often ends at another one."""
    rng = np.random.default_rng(0)
    D = rng.integers(0, 5, (30, 8)).astype(float)
    return validate_problem(Problem(points=tuple(Point(i) for i in range(30)), metric=matrix_metric(D),
                                    centers=CenterSpec(k=3, placement="discrete"), membership=membership,
                                    capacity=(9.0, 11.0)))


@pytest.mark.parametrize("membership, outlier, budget", [
    ("fractional", None, None), ("fractional", 30.0, None), ("hard", None, None), ("hard", 30.0, None),
    ("hard", None, 0.0), ("fractional", "tied", None), ("hard", "tied", None),
])
def test_shared_model_solves_like_a_model_per_descent(monkeypatch, lp_binding, membership, outlier, budget):
    prob = _tied_matrix_problem(membership) if outlier == "tied" else _capacitated_blobs(membership, outlier)
    config = SolverConfig(restarts=4, rng_seed=8, time_budget=budget)
    shared = solve(prob, config)
    real = solver._descent
    monkeypatch.setattr(solver, "_descent", lambda problem, centers, cfg, model, start:
                        real(problem, centers, cfg, solver.lp_model(problem), start))
    own = solve(prob, config)
    assert np.array_equal(shared.centers, own.centers)
    assert np.array_equal(shared.assignment.y, own.assignment.y)
    assert shared.diagnostics["restart_objectives"] == own.diagnostics["restart_objectives"]
    assert shared.diagnostics["objective_trace"] == own.diagnostics["objective_trace"]


@pytest.mark.parametrize("budget", [None, 0.0])
def test_each_descent_starts_without_a_last_hard_assignment(monkeypatch, lp_binding, budget):
    from capclust import allocation

    seen = []  # per descent, the model's last_hard at each allocation; capacitated descents run alone
    real_descent = solver._descent

    def descent_spy(*args):
        seen.append([])
        return (yield from real_descent(*args))

    def allocate_spy(*args, model=None, **kwargs):
        seen[-1].append(model.last_hard)
        return allocation.allocate(*args, model=model, **kwargs)

    monkeypatch.setattr(solver, "_descent", descent_spy)
    monkeypatch.setattr(solver, "allocate", allocate_spy)
    solve(_capacitated_blobs("hard"), SolverConfig(restarts=4, rng_seed=8, time_budget=budget))
    assert len(seen) == 4
    for calls in seen:
        assert len(calls) >= 2
        assert calls[0] is None
        assert all(last is not None for last in calls[1:])


@pytest.mark.parametrize("membership", ["fractional", "hard"])
def test_infeasible_window_fails_every_restart_alike(lp_binding, membership):
    from capclust import allocation
    from capclust.errors import Infeasible

    prob = replace(_capacitated_blobs(membership), capacity=(20.0, 30.0))  # 3 centers hold at least 60 > 45
    with pytest.raises(Infeasible) as direct:
        allocation.lp_model(prob)
    # No restart can run, so the message is given once, whatever the number of restarts.
    for restarts in (3, 30):
        with pytest.raises(AllRestartsInfeasible) as err:
            solve(prob, SolverConfig(restarts=restarts, rng_seed=8))
        assert str(err.value) == f"every restart: {direct.value}"


@pytest.mark.parametrize("membership, outlier", [("fractional", None), ("fractional", 30.0), ("hard", None)])
def test_two_solves_on_one_problem_agree(lp_binding, membership, outlier):
    prob = _capacitated_blobs(membership, outlier)
    a, b = (solve(prob, SolverConfig(restarts=3, rng_seed=8)) for _ in range(2))
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.assignment.y, b.assignment.y)
    assert a.diagnostics["restart_objectives"] == b.diagnostics["restart_objectives"]
    assert a.diagnostics["objective_trace"] == b.diagnostics["objective_trace"]


@pytest.mark.parametrize("membership", ["fractional", "hard"])
def test_milp_fallback_solves_like_the_warm_model(monkeypatch, membership):
    # A fractional solve makes no milp call with the binding, and one per allocation without it.
    import scipy.optimize

    from capclust import allocation

    prob = _capacitated_blobs(membership, 30.0)
    milp_calls = _counting(monkeypatch, scipy.optimize, "milp")
    allocations = _counting(monkeypatch, solver, "allocate")
    warm = solve(prob, SolverConfig(restarts=3, rng_seed=8))
    assert membership == "hard" or milp_calls == []
    milp_calls.clear()
    allocations.clear()
    monkeypatch.setattr(allocation, "_find_binding", lambda: None)
    cold = solve(prob, SolverConfig(restarts=3, rng_seed=8))
    assert membership == "hard" or len(milp_calls) == len(allocations) > 0
    assert cold.objective.total == pytest.approx(warm.objective.total, rel=1e-9)
    assert np.allclose(cold.diagnostics["restart_objectives"], warm.diagnostics["restart_objectives"], rtol=1e-9)
