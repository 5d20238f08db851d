import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import decide_release, location, update_center_discrete, update_centers_continuous
from capclust.errors import EmptyCluster
from capclust.location import WEISZFELD_MAX_ITER, cluster_costs_continuous
from capclust.metrics import geometric_distances
from oracles import grid_refine_median


def _costs(kind, xy, masses, locations):
    """One cluster's cost at each of the (L, 2) ``locations``, from the metric's distances."""
    return (masses[:, None] * geometric_distances(kind, xy, locations)).sum(axis=0)


def test_weighted_mean_example():
    got = update_centers_continuous("sqeuclidean", np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]), [0])
    assert np.allclose(got.coords, [[1.5, 0.0]])


def test_equilateral_triangle_median_is_centroid():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    got = update_centers_continuous("euclidean", xy, np.ones(3), [0])
    assert np.abs(got.coords[0] - xy.mean(axis=0)).max() < 1e-6


def test_collinear_median_is_middle_point():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    got = update_centers_continuous("euclidean", xy, np.ones(3), [0])
    assert np.abs(got.coords[0] - [1.0, 0.0]).max() < 1e-6


def test_manhattan_lower_median_on_ties():
    # Each coordinate is the smallest value at which the cumulative mass
    # reaches half the cluster's total, so an exact half goes to the lower.
    got = update_centers_continuous("manhattan", np.array([[0.0, 5.0], [1.0, 7.0]]), np.array([1.0, 1.0]), [0])
    assert got.coords.tolist() == [[0.0, 5.0]]
    xy = np.array([[3.0, 0.0], [1.0, 4.0], [2.0, 1.0], [5.0, 5.0], [4.0, 6.0]])
    got = update_centers_continuous("manhattan", xy, np.array([1.0, 1.0, 2.0, 1.0, 1.0]), [0, 3])
    assert got.coords.tolist() == [[2.0, 1.0], [4.0, 5.0]]


def test_empty_cluster_raises():
    with pytest.raises(EmptyCluster):
        update_centers_continuous("sqeuclidean", np.zeros((2, 2)), np.zeros(2), [0])
    with pytest.raises(EmptyCluster):
        update_center_discrete(np.ones((2, 3)), np.zeros((1, 2)), totals=np.zeros((1, 3)), rows=np.arange(2),
                               empty=np.array([True]), clusters=np.array([0]))


def test_discrete_medoid_example():
    # points and candidates at 0, 1, 5 on a line: weighted sums 6, 5, 9
    site_d = np.abs(np.array([0.0, 1.0, 5.0])[:, None] - np.array([0.0, 1.0, 5.0])[None, :])
    totals = np.zeros((1, 3))
    sites = update_center_discrete(site_d, np.ones((1, 3)), totals=totals, rows=np.arange(3),
                                   empty=np.array([False]), clusters=np.array([0]))
    assert sites.tolist() == [1]
    assert totals.tolist() == [[6.0, 5.0, 9.0]]


def test_discrete_single_point_picks_coincident_candidate():
    site_d = np.array([[2.0, 0.0, 3.0]])
    sites = update_center_discrete(site_d, np.ones((1, 1)), totals=np.zeros((1, 3)), rows=np.arange(1),
                                   empty=np.array([False]), clusters=np.array([0]))
    assert sites.tolist() == [1]


def test_discrete_zero_cost_column_wins():
    # Sites 1 and 2 tie at zero cost; the tie goes to the lower index.
    site_d = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    sites = update_center_discrete(site_d, np.ones((1, 2)), totals=np.zeros((1, 3)), rows=np.arange(2),
                                   empty=np.array([False]), clusters=np.array([0]))
    assert sites.tolist() == [1]


def _label_masses(labels, w, k):
    """The (k, n) masses of labelled points; label k is no cluster."""
    masses = np.zeros((k + 1, len(labels)))
    masses[labels, np.arange(len(labels))] = w
    return masses[:k]


def test_kept_site_totals_take_in_only_the_changed_rows():
    # Integer data: the kept totals equal a fresh product exactly.  The rows
    # of points whose mass did not change are NaN, so reading one would show.
    rng = np.random.default_rng(36)
    n, s, k = 40, 9, 4
    S = rng.integers(0, 50, size=(n, s)).astype(float)
    w = rng.integers(1, 6, size=n).astype(float)
    labels = rng.integers(0, k + 1, size=n)
    totals = np.zeros((k, s))
    old = np.zeros((k, n))
    for step in range(6):
        masses = _label_masses(labels, w, k)
        rows = np.flatnonzero((masses != old).any(axis=0)) if step else np.arange(n)
        masked = np.full_like(S, np.nan)
        masked[rows] = S[rows]
        empty = ~(masses > 0).any(axis=1)
        clusters = np.flatnonzero(~empty)
        sites = update_center_discrete(masked, masses[:, rows] - old[:, rows], totals=totals, rows=rows,
                                       empty=empty, clusters=clusters)
        assert np.array_equal(totals, masses @ S)
        assert np.array_equal(sites, np.argmin((masses @ S)[clusters], axis=1))
        old = masses
        moved = rng.choice(n, size=5, replace=False)
        labels = labels.copy()
        labels[moved] = rng.integers(0, k + 1, size=5)


def test_kept_site_totals_of_an_empty_cluster_are_zero():
    # The row of a cluster that holds no mass is set to exactly 0, whatever
    # rounding left in it.
    S = np.array([[1.0, 2.0], [3.0, 1.0]])
    totals = np.array([[1e-13, -2e-14], [4.0, 3.0]])
    empty = np.array([True, False])
    sites = update_center_discrete(S, np.zeros((2, 0)), totals=totals, rows=np.zeros(0, dtype=int), empty=empty,
                                   clusters=np.array([1]))
    assert sites.tolist() == [1]
    assert totals.tolist() == [[0.0, 0.0], [4.0, 3.0]]
    with pytest.raises(EmptyCluster):
        update_center_discrete(S, np.zeros((2, 0)), totals=totals, rows=np.zeros(0, dtype=int), empty=empty,
                               clusters=np.array([0, 1]))


def test_weiszfeld_close_to_grid_refinement():
    rng = np.random.default_rng(9)
    for _ in range(10):
        xy = rng.uniform(0, 10, size=(5, 2))
        masses = rng.uniform(0.5, 3.0, size=5)
        mine = update_centers_continuous("euclidean", xy, masses, [0]).coords[0]
        ref = grid_refine_median(xy, masses)
        my_cost, ref_cost = _costs("euclidean", xy, masses, np.array([mine, ref]))
        assert my_cost <= ref_cost + 1e-4
        assert np.abs(mine - ref).max() < 1e-3 or my_cost < ref_cost


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_update_never_increases_cluster_cost(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    xy = rng.uniform(-5, 5, size=(n, 2))
    masses = rng.uniform(0.1, 2.0, size=n)
    old = rng.uniform(-5, 5, size=2)
    for kind in ("sqeuclidean", "euclidean", "manhattan"):
        new = update_centers_continuous(kind, xy, masses, [0]).coords[0]
        before, after = _costs(kind, xy, masses, np.array([old, new]))
        assert after <= before + 1e-9 * max(1.0, before)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 50.0))
def test_mean_and_median_scale_equivariance(seed, s):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-3, 3, size=(6, 2))
    masses = rng.uniform(0.5, 2.0, size=6)
    for kind in ("sqeuclidean", "manhattan"):
        base = update_centers_continuous(kind, xy, masses, [0]).coords
        scaled = update_centers_continuous(kind, xy * s, masses, [0]).coords
        assert np.allclose(scaled, base * s, rtol=1e-9, atol=1e-12)


def test_weiszfeld_handles_coincident_optimum():
    # median sits exactly on the heavy data point
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    masses = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
    got = update_centers_continuous("euclidean", xy, masses, [0])
    assert got.converged[0]
    assert np.abs(got.coords[0] - [0.0, 0.0]).max() < 1e-9


def test_weiszfeld_returns_optimal_data_point_exactly():
    # the heavier point is optimal (pull 86 <= mass 87), but the fixed-point
    # iteration only closes in on it by a factor 86/87 per step
    xy = np.array([[0.3, 0.7], [1.9, -2.0]])
    got = update_centers_continuous("euclidean", xy, np.array([87.0, 86.0]), [0])
    assert got.converged[0]
    assert got.coords.tolist() == [[0.3, 0.7]]
    assert got.iterations[0] <= 5


def _assert_geometric_median(xy, masses, got, rtol=1e-12, **grid):
    """The one cluster of ``got`` converged, no costlier than grid refinement or the best data point."""
    assert got.converged[0] and got.iterations[0] < WEISZFELD_MAX_ITER
    cost, ref, *at_points = _costs("euclidean", xy, masses,
                                   np.vstack([got.coords, grid_refine_median(xy, masses, **grid), xy]))
    assert cost <= ref * (1 + rtol)
    assert cost <= min(at_points) * (1 + rtol)


def test_weiszfeld_converges_on_a_three_point_cluster_off_the_data_points():
    # A cluster of the euclid-outlier benchmark (seed 5, second command) on
    # which plain fixed-point iteration ran into the iteration cap.
    xy = np.array([[0.6771581950480576, 2.8952771739432346], [0.6479666005833951, 2.7994740788835184],
                   [0.7844032492134553, 2.9310279461460595]])
    masses = np.array([13.002658610094, 87.75257108289097, 98.86555216970588])
    got = update_centers_continuous("euclidean", xy, masses, [0])
    _assert_geometric_median(xy, masses, got)
    assert np.hypot(*(xy - got.coords).T).min() > 0.01


def test_weiszfeld_converges_on_tiny_clusters_far_from_the_origin():
    rng = np.random.default_rng(8)
    for _ in range(400):
        n = int(rng.integers(3, 9))
        xy = 5.0 + 1e-8 * rng.uniform(-1.0, 1.0, size=(n, 2))
        masses = rng.uniform(0.5, 3.0, size=n)
        got = update_centers_continuous("euclidean", xy, masses, [0])
        _assert_geometric_median(xy, masses, got, rtol=1e-9, rounds=10, res=40)


def test_weiszfeld_is_quick_on_near_collinear_clusters():
    # Points on a line plus 1e-9 noise fail the collinearity test, and an
    # iterate that walks the narrow valley toward the optimal data point
    # took up to the iteration cap.
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(3, 12))
        angle = rng.uniform(0.0, np.pi)
        along = rng.uniform(-5.0, 5.0, size=n)[:, None] * [np.cos(angle), np.sin(angle)]
        xy = rng.uniform(-10.0, 10.0, size=2) + along + rng.normal(0.0, 1e-9, size=(n, 2))
        masses = rng.uniform(0.5, 3.0, size=n)
        got = update_centers_continuous("euclidean", xy, masses, [0])
        assert got.iterations[0] <= 20
        _assert_geometric_median(xy, masses, got, rounds=10, res=40)


@pytest.mark.parametrize("xy, masses", [
    ([[1.0, 3.0], [3.0, 7.0], [-2.0, -3.0], [0.5, 2.0]], [1.0, 4.0, 2.0, 0.5]),
    ([[0.0, 2.0], [0.0, -5.0], [0.0, 1.0], [0.0, 1.0]], [2.0, 3.0, 0.5, 0.25]),
    ([[0.3, 0.7], [1.9, -2.0]], [5.0, 5.0]),
])
def test_weiszfeld_returns_a_data_point_on_collinear_clusters(xy, masses):
    xy, masses = np.array(xy), np.array(masses)
    got = update_centers_continuous("euclidean", xy, masses, [0])
    _assert_geometric_median(xy, masses, got)
    assert got.iterations[0] == 1
    assert any(got.coords[0].tolist() == p for p in xy.tolist())


def test_weiszfeld_with_duplicate_points():
    rng = np.random.default_rng(21)
    for _ in range(20):
        base = rng.uniform(-3.0, 3.0, size=(int(rng.integers(3, 7)), 2))
        xy = base[rng.integers(0, len(base), size=12)]
        masses = rng.uniform(0.5, 3.0, size=12)
        got = update_centers_continuous("euclidean", xy, masses, [0])
        _assert_geometric_median(xy, masses, got, rtol=1e-9, rounds=10, res=40)
    # two coincident points are together heavy enough to hold the median
    xy = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    masses = np.array([1.5, 1.5, 1.0, 1.0, 1.0])
    got = update_centers_continuous("euclidean", xy, masses, [0])
    _assert_geometric_median(xy, masses, got)
    assert got.coords.tolist() == [[0.0, 0.0]]


CLUSTER_KINDS = ("single", "coincident", "collinear", "thin", "heavy", "blob")


def _cluster(rng, kind):
    """Points and masses of one cluster of the given kind."""
    n = int(rng.integers(2, 40))
    masses = rng.uniform(0.5, 3.0, size=n)
    origin = rng.uniform(-5.0, 5.0, size=2)
    if kind == "single":
        return origin[None, :], masses[:1]
    if kind == "coincident":
        return np.repeat(origin[None, :], n, axis=0), masses
    t = rng.uniform(-5.0, 5.0, size=n)
    if kind == "collinear":  # exactly: every cross product is zero
        return origin + np.stack([t, t], axis=1), masses
    if kind == "thin":
        return origin + np.stack([t, 0.3 * t], axis=1) + rng.normal(0.0, 1e-6, size=(n, 2)), masses
    xy = origin + rng.normal(0.0, rng.uniform(0.1, 3.0), size=(n, 2))
    if kind == "heavy":  # the first point outweighs the pull of all others, so it is optimal
        masses[0] = 1.5 * masses[1:].sum()
    return xy, masses


def _batch(clusters):
    xy = np.vstack([c[0] for c in clusters])
    masses = np.concatenate([c[1] for c in clusters])
    return xy, masses, np.cumsum([0] + [len(c[1]) for c in clusters[:-1]])


def _assert_batch_matches_singles(kind, clusters):
    xy, masses, starts = _batch(clusters)
    batch = update_centers_continuous(kind, xy, masses, starts)
    locations = batch.coords + 0.25
    costs = cluster_costs_continuous(kind, xy, masses, starts, locations)
    for r, (points, mass) in enumerate(clusters):
        alone = update_centers_continuous(kind, points, mass, [0])
        scale = np.hypot(*(points.max(axis=0) - points.min(axis=0)))
        assert np.abs(batch.coords[r] - alone.coords[0]).max() <= 1e-12 * scale
        assert (batch.iterations[r], batch.converged[r]) == (alone.iterations[0], alone.converged[0])
        alone_cost = cluster_costs_continuous(kind, points, mass, [0], locations[r][None])[0]
        assert costs[r] == pytest.approx(alone_cost, rel=1e-12)
    return batch


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_batched_relocation_matches_one_cluster_at_a_time(seed):
    rng = np.random.default_rng(seed)
    kinds = rng.choice(CLUSTER_KINDS, size=int(rng.integers(1, 9)))
    clusters = [_cluster(rng, kind) for kind in kinds]
    for metric in ("euclidean", "sqeuclidean", "manhattan"):
        batch = _assert_batch_matches_singles(metric, clusters)
    for r, kind in enumerate(kinds):
        assert batch.converged[r]
        if kind in ("single", "coincident", "collinear", "heavy"):
            # a data point is the median, returned exactly
            assert any(batch.coords[r].tolist() == p for p in clusters[r][0].tolist())


def test_a_capped_cluster_runs_beside_clusters_that_stop_early(monkeypatch):
    rng = np.random.default_rng(3)
    blob = _cluster(rng, "blob")
    clusters = [_cluster(rng, "single"), blob, _cluster(rng, "collinear"), _cluster(rng, "coincident"), blob]
    assert update_centers_continuous("euclidean", *blob, [0]).iterations[0] > 2
    monkeypatch.setattr(location, "WEISZFELD_MAX_ITER", 2)
    batch = _assert_batch_matches_singles("euclidean", clusters)
    assert batch.iterations.tolist()[1::3] == [2, 2]
    assert batch.converged.tolist() == [True, False, True, True, False]
    assert batch.iterations[[0, 2, 3]].tolist() == [1, 1, 1]


def test_the_newton_search_prices_only_the_clusters_that_search(monkeypatch):
    # A batch whose lockstep iterations mix clusters whose full Newton step
    # failed, and which search its halvings and the Weiszfeld step over
    # copies of their own points, with clusters whose step held.  It also
    # holds a thin cluster that its pull test decides and a cluster that
    # takes the Weiszfeld step, and so creeps.  Each cluster gets, to the
    # last bit, the CenterUpdate it gets alone.
    rng = np.random.default_rng(0)
    clusters = [_cluster(rng, kind) for kind in ("blob", "thin", "heavy", "blob", "coincident", "heavy")]
    searches, tests = [], []
    real_search, real_pull_tests = location._search, location._pull_tests

    def search(*args):
        search, first, to = real_search(*args)
        searches.append((args[6].copy(), first))  # the mask of searching clusters, and the step each one took
        return search, first, to

    def pull_tests(P, M, sizes, starts, j, snap):
        tests.append(len(starts))
        return real_pull_tests(P, M, sizes, starts, j, snap)

    monkeypatch.setattr(location, "_search", search)
    monkeypatch.setattr(location, "_pull_tests", pull_tests)
    batch = update_centers_continuous("euclidean", *_batch(clusters))
    assert any(searching.any() and not searching.all() for searching, _ in searches)
    assert any((first == 3).any() for _, first in searches)
    assert tests[0] == 1 and (batch.iterations[1], batch.converged[1]) == (1, True)  # the thin cluster, alone
    monkeypatch.undo()
    for r, (points, mass) in enumerate(clusters):
        alone = update_centers_continuous("euclidean", points, mass, [0])
        assert batch.coords[r].tolist() == alone.coords[0].tolist()
        assert (batch.iterations[r], batch.converged[r]) == (alone.iterations[0], alone.converged[0])


@pytest.mark.parametrize("moment", [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 2.0, 1.0]], ids=["zero", "negative"])
def test_a_cluster_without_a_positive_hessian_determinant_stops_where_its_weiszfeld_step_fails(monkeypatch, moment):
    # Every cluster's Hessian adjugate is replaced by one whose determinant
    # is 0 or negative, so no cluster has a Newton step and each step is
    # zero.  Its halvings then price its own iterate at exactly its cost and
    # never win: each round it takes the Weiszfeld step, and in the round
    # where that step fails to lower the cost it stops, at the iterate it
    # held, to the last bit.  A batch of such clusters, some repeated,
    # gives each the CenterUpdate it gets alone.
    rng = np.random.default_rng(3)
    clusters = [_cluster(rng, "blob") for _ in range(4)] + [_kuhn_cluster()]
    real_steps, real_search = location._newton_steps, location._search
    rounds, searches = [], []  # per round, the step of each cluster that searched and its iterate before it

    def newton_steps(m, g, newton):
        rounds.append(None)
        return real_steps(np.repeat(np.array(moment)[:, None], m.shape[1], axis=1), g, newton)

    def search(P, M, inv, y, step, cost, searching, sizes):
        assert not step.any()
        found = real_search(P, M, inv, y, step, cost, searching, sizes)
        searches.append((len(rounds), found[1], y[:, found[0]].T.copy(), found[2].T))
        return found

    monkeypatch.setattr(location, "_newton_steps", newton_steps)
    monkeypatch.setattr(location, "_search", search)
    alone = []
    for points, mass in clusters:
        rounds.clear()
        searches.clear()
        update = update_centers_continuous("euclidean", points, mass, [0])
        assert update.converged[0] and update.iterations[0] == len(rounds) > 1
        assert all(len(first) == 1 and first[0] in (3, 4) for _, first, _, _ in searches)  # no halving wins
        last_round, first, before, after = searches[-1]
        assert last_round == len(rounds) and first[0] == 4  # its Weiszfeld step failed in its last round
        assert update.coords[0].tolist() == before[0].tolist() == after[0].tolist()
        alone.append(update)
    picked = [0, 1, 4, 2, 1, 3, 4]
    batch = update_centers_continuous("euclidean", *_batch([clusters[r] for r in picked]))
    for row, r in enumerate(picked):
        assert batch.coords[row].tolist() == alone[r].coords[0].tolist()
        assert (batch.iterations[row], batch.converged[row]) == (alone[r].iterations[0], alone[r].converged[0])


def _kuhn_cluster():
    """A cluster whose weighted mean, where its iterate starts, is its first point, which is not optimal."""
    return np.array([[0.0, 0.0], [2.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]), np.array([0.01, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("cap", [None, 2])
def test_batches_that_repeat_clusters_match_one_cluster_at_a_time(monkeypatch, cap):
    # The clusters of the search test above, a collinear cluster and one
    # that Kuhn's step takes off a data point.  Batches repeat some of them,
    # within one call and across calls beside other clusters, and each copy
    # gets, to the last bit, the CenterUpdate its cluster gets alone.
    # Uncapped, every way to a result occurs: the collinear median, a thin
    # cluster's pull test, Kuhn's step, a search step and the Weiszfeld
    # creep; capped, clusters end unconverged at the cap.
    rng = np.random.default_rng(0)
    clusters = [_cluster(rng, kind) for kind in ("blob", "thin", "heavy", "blob", "coincident", "heavy")]
    clusters += [_cluster(rng, "collinear"), _kuhn_cluster()]
    if cap:
        monkeypatch.setattr(location, "WEISZFELD_MAX_ITER", cap)
    real_search, real_pull_tests = location._search, location._pull_tests
    firsts, optimal = [], []  # per cluster alone: the search steps it took (4: none), its pull tests' answers

    def search(*args):
        found = real_search(*args)
        firsts[-1] += found[1].tolist()
        return found

    def pull_tests(*args):
        found = real_pull_tests(*args)
        optimal[-1] += found[0].tolist()
        return found

    monkeypatch.setattr(location, "_search", search)
    monkeypatch.setattr(location, "_pull_tests", pull_tests)
    alone = []
    for points, mass in clusters:
        firsts.append([])
        optimal.append([])
        alone.append(update_centers_continuous("euclidean", points, mass, [0]))
    if cap:
        assert [update.converged[0] for update in alone].count(False) >= 2
        assert all(update.iterations[0] == cap for update in alone if not update.converged[0])
    else:
        assert all(update.converged[0] for update in alone)
        assert alone[6].iterations[0] == 1 and firsts[6] == optimal[6] == []  # collinear
        assert alone[1].iterations[0] == 1 and optimal[1] == [True]  # thin, decided by its pull test
        assert False in optimal[7] and alone[7].iterations[0] > 1  # Kuhn's step off its first point
        steps = sum(firsts[:6], [])
        assert 3 in steps and any(first < 3 for first in steps)  # the creep, and a halved or full Newton step
    for picked in ([0, 1, 2, 3, 0, 4, 5, 6, 7, 3, 7, 1], [7, 0, 7], [2, 5, 6, 1, 4, 3, 2]):
        batch = update_centers_continuous("euclidean", *_batch([clusters[r] for r in picked]))
        for row, r in enumerate(picked):
            assert batch.coords[row].tolist() == alone[r].coords[0].tolist()
            assert (batch.iterations[row], batch.converged[row]) == (alone[r].iterations[0], alone[r].converged[0])


@pytest.mark.parametrize("kind, xy, masses, starts, fault", [
    ("euclidean", [[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]], [1.0, 1.0, 1.0], [0], "coordinates must be finite"),
    ("sqeuclidean", [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 1.0, 1.0, -0.5], [0],
     "masses must be finite and non-negative"),
    ("euclidean", [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]], [1.0, np.inf, 1.0], [0, 2], "masses must be finite"),
    ("sqeuclidean", [[0.0, 0.0], [1.0, 1.0]], [1.0, np.inf], [0], "masses must be finite"),
    ("manhattan", [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 1.0], [0], r"masses of shape \(2,\) for 3 points"),
    ("euclidean", [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], [1.0, 1.0, 1.0], [0], r"points of shape \(2, 3\)"),
    ("euclidean", [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 1.0, 1.0], [0, 2, 1], "must not fall"),
    ("euclidean", [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 1.0, 1.0], [[0], [1]], "one row"),
], ids=["nan-coordinate", "negative-mass", "infinite-mass", "infinite-mass-sqeuclidean", "short-masses",
        "points-by-column", "falling-starts", "starts-in-two-rows"])
def test_batched_relocation_rejects_bad_inputs(kind, xy, masses, starts, fault):
    with pytest.raises(ValueError, match=fault):
        update_centers_continuous(kind, np.array(xy), np.array(masses), starts)


def test_batched_relocation_rejects_a_cluster_whose_total_mass_overflows():
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError, match="each cluster's total"):
        update_centers_continuous("euclidean", np.zeros((3, 2)), np.array([1e308, 1e308, 1.0]), [0, 2])


def test_batched_relocation_rejects_an_empty_cluster():
    xy = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    for masses, starts in (([1.0, 1.0, 1.0], [0, 1, 1]), ([1.0, 0.0, 1.0], [0, 1, 2]), ([1.0, 1.0, 1.0], [0, 3])):
        with pytest.raises(EmptyCluster):
            update_centers_continuous("euclidean", xy, np.array(masses), starts)


# decide_release(gain, penalty, released): gain is the cluster's cost at the
# fixed location minus its cost at the chosen free location.

def test_release_when_gain_beats_penalty():
    assert decide_release(10.0, 5.0, False)


def test_keep_when_penalty_too_high():
    assert not decide_release(10.0, 15.0, False)


def test_boundary_gain_keeps_fixed():
    assert not decide_release(10.0, 10.0, False)  # gain is exactly the penalty


def test_released_center_reattaches_when_gain_drops():
    assert not decide_release(1.0, 5.0, True)


def test_released_center_stays_at_boundary_gain():
    assert decide_release(10.0, 10.0, True)  # reattach needs gain strictly below the penalty


def test_infinite_penalty_never_releases():
    assert not decide_release(500.0, np.inf, False)
