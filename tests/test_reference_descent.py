"""``descend``, ``solve`` and ``sweep_k`` against the reference descent of ``oracles``.

Every shortcut of the package's descent must reproduce the reference's
answers, so a new shortcut adds a case here, not its own equivalence test.
Uncapacitated problems have integer-valued data and must agree exactly.  A
capacitated LP may return another of several tied optima, so capacitated
problems have generic float data and agree to 1e-12 relative, and an
example whose reference puts two centers on one spot is not compared.
"""

import math
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from capclust import (
    CenterSpec, Point, Problem, SolverConfig, descend, euclidean, kmeanspp_init, location, manhattan,
    matrix_metric, solve, solver, sqeuclidean, sweep_k, threshold, validate_problem,
)
from capclust.errors import CapclustError
from oracles import assert_same_solution, reference_descend, reference_lloyd, reference_solve

GEOMETRIC = {"sqeuclidean": sqeuclidean, "manhattan": manhattan, "euclidean": euclidean}


@st.composite
def problems(draw, capacitated=False, kinds=("matrix", "threshold", *GEOMETRIC), min_k=1):
    """A problem with integer-valued data, or generic floats and a capacity window.

    Draws cover every metric, fixed centers with finite and infinite release
    penalties, the outlier column, w' = 0 points, a q = 2 point and both
    memberships.  Euclidean placement is continuous: Euclidean site costs
    are not integer-valued, and kept site totals of them agree with fresh
    sums to rounding only.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape, high):
        return rng.uniform(0, high, shape) if capacitated else rng.integers(0, high, shape).astype(float)

    kind = draw(st.sampled_from(kinds))
    n, k = draw(st.integers(6, 40)), draw(st.integers(min_k, 6))
    m, penalty = draw(st.integers(0, min(k, 2))), draw(st.sampled_from([math.inf, 0.0, 3.0, 12.0]))
    xy, w = values((n, 2), 8), rng.uniform(0.5, 3, n) if capacitated else values(n, 4)
    q = np.ones(n, dtype=int)
    q[0] += k > 1 and draw(st.booleans())
    points = tuple(Point(i, coords=tuple(xy[i]), w=float(w[i]), q=int(q[i])) for i in range(n))
    if kind in ("matrix", "threshold") or (kind != "euclidean" and draw(st.booleans())):
        s = draw(st.integers(k, 16))
        if kind == "matrix":
            metric = matrix_metric(values((n, s), 30))
        else:
            metric = threshold(2.5) if kind == "threshold" else GEOMETRIC[kind]()
        centers = CenterSpec(k=k, placement="discrete", candidates=None if kind == "matrix" else values((s, 2), 8),
                             fixed=tuple(rng.choice(s, m, replace=False).tolist()), release_penalty=penalty)
    else:
        metric, centers = GEOMETRIC[kind](), CenterSpec(k=k, fixed=tuple(map(tuple, values((m, 2), 8))),
                                                        release_penalty=penalty)
    capacity = None
    if capacitated:
        mean = float(w @ q) / k
        capacity = (draw(st.sampled_from([0.0, 0.6])) * mean, draw(st.sampled_from([1.3, 2.0])) * mean)
    return validate_problem(Problem(points=points, metric=metric, centers=centers, capacity=capacity,
                                    membership=draw(st.sampled_from(["hard", "fractional"])),
                                    outlier_penalty=draw(st.sampled_from([None, 3.0, 12.0]))))


def _start(problem, seed, spread):
    """k-means++ seeds, or with ``spread`` random spots after the fixed centers, which start longer descents."""
    rng, spec = np.random.default_rng(seed), problem.centers
    if not spread:
        return kmeanspp_init(problem, rng)
    if spec.placement == "discrete":
        free = np.setdiff1d(np.arange(problem.site_costs.shape[1]), spec.fixed)
        return np.concatenate([spec.fixed, rng.choice(free, spec.k - spec.n_fixed, replace=False)]).astype(int)
    return np.vstack([np.reshape(spec.fixed, (-1, 2)), rng.uniform(-4, 12, (spec.k - spec.n_fixed, 2))])


def _with_k(problem, k):
    return validate_problem(replace(problem, centers=replace(problem.centers, k=k)))


def _outcome(run):
    """What ``run()`` returns, or the type of the package error it raises."""
    try:
        return run()
    except CapclustError as exc:
        return type(exc)


def _compare(got, expect, rtol=0.0):
    """Assert that the outcome ``got`` gives the answers of ``expect``, or failed with the same error.

    With ``rtol``, an ``expect`` that puts two centers on one spot, where
    the LP ties, is not compared.
    """
    if isinstance(expect, type):
        assert got is expect
        return
    assume(not rtol or all(len(np.unique(c, axis=0)) == len(c) for c in expect.diagnostics["center_trace"]))
    assert_same_solution(got, expect, rtol=rtol)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(problems(min_k=2), st.integers(0, 3), st.booleans(), st.sampled_from([None, 1, 3]))
def test_descend_matches_the_reference(problem, seed, spread, newton_cap):
    # A cap of one or three Newton iterations leaves Euclidean clusters
    # unconverged, so the counts replayed for skipped clusters are compared.
    centers0 = _start(problem, seed, spread)
    with mock.patch.object(location, "WEISZFELD_MAX_ITER", newton_cap or location.WEISZFELD_MAX_ITER):
        expect = _outcome(lambda: reference_descend(problem, centers0, SolverConfig()))
        _compare(_outcome(lambda: descend(problem, centers0, SolverConfig())), expect)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(problems(), st.integers(0, 100))
def test_solve_and_each_sweep_solution_match_the_reference(problem, rng_seed):
    # k runs past the sites of some discrete problems, where all three fail.
    config = SolverConfig(restarts=2, rng_seed=rng_seed)
    ks = range(max(1, problem.centers.n_fixed), problem.k + 3)
    report = sweep_k(problem, ks, [0.0], config)
    for k in ks:
        expect = _outcome(lambda: reference_solve(_with_k(problem, k), config))
        _compare(_outcome(lambda: solve(_with_k(problem, k), config)), expect)
        if isinstance(expect, type):
            assert k in report.errors
        else:
            assert_same_solution(report.solutions[k], expect)


def _grouped_problem(case):
    """Four weighted blobs under each kind of descent ``solve`` runs; Euclidean releases both fixed centers."""
    rng = np.random.default_rng(11)
    xy = np.vstack([rng.normal(c, 1.0, (15, 2)) for c in [(0, 0), (6, 1), (3, 7), (9, 8)]])
    w = rng.uniform(0.5, 3, len(xy))
    points = tuple(Point(i, coords=tuple(xy[i]), w=float(w[i])) for i in range(len(xy)))
    kw = {
        "euclidean": {"metric": euclidean(), "outlier_penalty": 2.5,
                      "centers": CenterSpec(k=5, fixed=((3.0, 3.0), (8.0, 1.0)), release_penalty=6.0)},
        "manhattan": {"metric": manhattan(), "centers": CenterSpec(k=4)},
        "sqeuclidean": {"metric": sqeuclidean(), "centers": CenterSpec(k=4)},
        "discrete": {"metric": euclidean(),
                     "centers": CenterSpec(k=4, placement="discrete", candidates=rng.uniform(-1, 10, (12, 2)))},
        "capacitated-fractional": {"metric": sqeuclidean(), "centers": CenterSpec(k=4), "membership": "fractional",
                                   "capacity": (0.6 * w.sum() / 4, 1.3 * w.sum() / 4)},
    }[case]
    return validate_problem(Problem(points=points, **kw))


@pytest.mark.parametrize("case", ["euclidean", "manhattan", "sqeuclidean", "discrete", "capacitated-fractional"])
def test_restarts_in_one_lockstep_group_solve_as_one_at_a_time(monkeypatch, case):
    # A cap of one cell runs every restart in a group of its own; a large
    # one runs them all in one group.  Only continuous descents without a
    # capacity window share location calls, and no answer may change.
    problem = _grouped_problem(case)
    config = SolverConfig(restarts=5, rng_seed=4)
    real, calls = solver.update_centers_continuous, []
    monkeypatch.setattr(solver, "update_centers_continuous", lambda *args: calls.append(1) or real(*args))
    got = []
    for cells in (1, 10**12):
        monkeypatch.setattr(solver, "_LOCKSTEP_CELLS", cells)
        del calls[:]
        got.append((solve(problem, config), len(calls)))
    (alone, alone_calls), (grouped, grouped_calls) = got
    assert_same_solution(grouped, alone)
    assert len(set(alone.diagnostics["restart_objectives"])) > 1
    if case in ("euclidean", "manhattan", "sqeuclidean"):
        assert grouped_calls < alone_calls
    else:
        assert grouped_calls == alone_calls
    if case == "euclidean":
        assert alone.released and (alone.assignment.labels == problem.k).any()  # released, and some outliers


@pytest.mark.parametrize("case", ["euclidean", "manhattan", "sqeuclidean"])
def test_a_lockstep_group_prices_each_location_call_in_one_call(monkeypatch, case):
    # One call prices every update of the round, with fixed centers too: a
    # release gain reads the fixed location's cost from the descent's own
    # distances to the fixed locations.
    problem = _grouped_problem(case)
    calls = []
    for name in ("update_centers_continuous", "cluster_costs_continuous"):
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    monkeypatch.setattr(solver, "_LOCKSTEP_CELLS", 10**12)
    solve(problem, SolverConfig(restarts=5, rng_seed=4))
    located, priced = calls.count("update_centers_continuous"), calls.count("cluster_costs_continuous")
    assert 0 < located == priced
    assert (problem.centers.n_fixed > 0) == (case == "euclidean")


# Manhattan medians sit on data coordinates, and L1 distances through them
# tie exactly; under a fractional window, a last-bit change of a membership
# moves a geometric median within its stopping tolerance.  So capacitated
# problems have squared-Euclidean or cost-matrix data.
@settings(derandomize=True, deadline=None, max_examples=50)
@given(problems(capacitated=True, kinds=("matrix", "sqeuclidean"), min_k=2), st.integers(0, 100))
def test_capacitated_solves_and_solves_in_a_sweep_block_match_the_reference(drawn, rng_seed):
    # An uncapacitated sweep's draw sequences track each restart's
    # nearest-seed labels.  A capacitated solve handed those sequences
    # continues them, and a solve at a smaller k finds them longer than k;
    # neither may start from the tracked labels, and a descent never does.
    free = validate_problem(replace(drawn, capacity=None, membership="hard",
                                    points=tuple(replace(p, q=1) for p in drawn.points)))
    capped = validate_problem(replace(free, capacity=drawn.capacity, membership=drawn.membership))
    smaller = _with_k(free, free.k - 1) if free.k > free.centers.n_fixed else free
    config = SolverConfig(restarts=1, rng_seed=rng_seed)
    sites = kmeanspp_init(free, np.random.default_rng(rng_seed))
    expect = [_outcome(lambda: reference_solve(p, config)) for p in (drawn, capped, smaller)]
    expect.append(reference_descend(free, sites, config))
    got = [_outcome(lambda: solve(drawn, config))]
    sequences = solver._sequences(free, config)
    for k in (free.k, free.k + 1):  # the solves of a sweep over these two k
        _outcome(lambda: solve(_with_k(free, k), config, sequences=sequences))
    assert all(seq.track == (free.centers.placement == "discrete") for seq in sequences)
    got += [_outcome(lambda: solve(p, config, sequences=sequences)) for p in (capped, smaller)]
    got.append(descend(free, sites, config))
    for outcome, expected, rtol in zip(got, expect, (1e-12, 1e-12, 0, 0)):
        _compare(outcome, expected, rtol)


def test_reference_descent_is_lloyd_on_unit_weight_squared_euclidean_data():
    # The instances of acceptance criterion 4 anchor the reference to the
    # textbook iteration, independently of the package's descent.
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        centers_truth = rng.uniform(0, 12, size=(3, 2))
        while True:
            xy = np.vstack([rng.normal(c, 0.8, size=(20, 2)) for c in centers_truth])
            prob = validate_problem(Problem(points=tuple(Point(i, coords=tuple(xy[i])) for i in range(60)),
                                            metric=sqeuclidean(), centers=CenterSpec(k=3)))
            centers0 = kmeanspp_init(prob, np.random.default_rng(seed))
            sol = reference_descend(prob, centers0, SolverConfig())
            if sol.diagnostics["empty_reseeds"] == 0:
                break
        lloyd, trace = reference_lloyd(xy, centers0), sol.diagnostics["center_trace"]
        assert all(np.allclose(a, b, atol=1e-10) for a, b in zip(lloyd, trace))
        assert np.allclose(lloyd[-1], trace[-1], atol=1e-10)
