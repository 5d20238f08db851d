"""Location step: relocate centers given the mass assigned to them.

Continuous placement uses the exact minimizer for each metric: weighted
mean (squared Euclidean), geometric median by guarded Newton steps
(Euclidean, ``_geometric_medians``) and the coordinatewise weighted lower
median (Manhattan).  ``update_centers_continuous`` relocates a batch of
clusters in one call; one cluster alone is the batch with starts ``[0]``.
Their points come one cluster after another, every sum over a cluster is
one segment of ``np.add.reduceat``, and the geometric medians share one
Newton loop, run in lockstep, which a cluster leaves when it stops.  A
cluster's arithmetic does not depend on the clusters beside it, so each
cluster gets the result it would get alone.  ``cluster_costs_continuous``
prices a batch the same way.  Discrete placement picks the candidate site
minimizing the weighted distance sum, from sums kept across a descent's
steps, or a draw sequence's seeds, and brought up to date by
``add_mass_change``.
``decide_release`` is the release rule for a fixed center, applied by the
solver to the gain of the location it chose.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import metrics
from .errors import EmptyCluster

WEISZFELD_MAX_ITER = 1000
_HALVINGS = np.array([[2.0], [4.0], [8.0]])


class CenterUpdate(NamedTuple):
    """The (c, 2) new locations of a batch of c clusters, and each cluster's iteration count and convergence."""

    coords: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _lower_medians(values: np.ndarray, masses: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each cluster's weighted lower median: its smallest value where the cumulative mass reaches half its total.

    The clusters become the rows of (c, L) arrays, each padded with copies
    of its first value at zero mass, which change neither a row's running
    sums nor the first value at which they reach half the row's mass.
    """
    sizes = np.diff(starts, append=len(values))
    seg = np.repeat(np.arange(len(starts)), sizes)
    col = np.arange(len(values)) - starts[seg]
    V = np.repeat(values[starts, None], sizes.max(), axis=1)
    W = np.zeros(V.shape)
    V[seg, col], W[seg, col] = values, masses
    order = np.argsort(V, axis=1, kind="stable")
    csum = np.cumsum(np.take_along_axis(W, order, axis=1), axis=1)
    idx = np.minimum((csum < csum[:, -1:] / 2.0).sum(axis=1), V.shape[1] - 1)
    return np.take_along_axis(V, order, axis=1)[np.arange(len(V)), idx]


def _first(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each cluster's first point index where ``mask`` holds; the number of points where it never does."""
    return np.minimum.reduceat(np.where(mask, np.arange(len(mask)), len(mask)), starts)


def _keep(clusters: np.ndarray, sizes: np.ndarray):
    """The points of the clusters in the mask ``clusters``, by index, and those clusters' sizes and starts."""
    kept = sizes[clusters]
    return np.flatnonzero(clusters.repeat(sizes)), kept, np.cumsum(kept) - kept


def _at(y: np.ndarray, P: np.ndarray, M: np.ndarray, sizes: np.ndarray, starts: np.ndarray):
    """Offsets (2, N) from the points to their cluster's iterate in the (2, c) y, their lengths, each cluster's cost."""
    D2 = y.repeat(sizes, axis=1) - P
    sq = D2 * D2
    d = np.sqrt(sq[0] + sq[1])
    return D2, d, np.add.reduceat(M * d, starts)


def _pull_tests(P, M, sizes, starts, j, snap):
    """Whether data point j of each cluster is optimal.

    Also gives the residual pull (2, c) of the other points there, its
    norm, the mass within ``snap`` of the point and the inverse-distance
    sum of the points beyond it.
    """
    A = P - P[:, j].repeat(sizes, axis=1)
    sq = A * A
    dist = np.sqrt(sq[0] + sq[1])
    here = dist <= snap.repeat(sizes)
    inv = np.divide(M, dist, out=np.zeros(len(M)), where=~here)
    pull = np.add.reduceat(A * inv, starts, axis=1)
    norm = np.hypot(pull[0], pull[1])
    mass_here = np.add.reduceat(np.where(here, M, 0.0), starts)
    return norm <= mass_here, pull, norm, mass_here, np.add.reduceat(inv, starts)


def _search(P, M, inv, y, step, cost, has_step, searching, sizes):
    """The first of its three halved Newton steps and its Weiszfeld step that lowers each searching cluster's cost.

    The clusters in the mask ``searching`` price all four at once, over
    copies of their own points (``_keep``): each sum is still one
    ``reduceat`` segment per cluster.  Gives the clusters that found one,
    by index, which step each takes (3 for the Weiszfeld step) and where it
    leads, (2, t).
    """
    search = np.flatnonzero(searching)
    idx, sizes, starts = _keep(searching, sizes)
    P, M, inv = P.take(idx, axis=1), M[idx], inv[idx]
    pulled = np.add.reduceat(inv * P, starts, axis=1) / np.add.reduceat(inv, starts)
    cands = np.concatenate([y[:, None, search] - step[:, None, search] / _HALVINGS, pulled[:, None]], axis=1)
    sq = cands.repeat(sizes, axis=2) - P[:, None]
    sq *= sq
    lower = np.add.reduceat(M * np.sqrt(sq[0] + sq[1]), starts, axis=1) < cost[search]
    lower[:3] &= has_step[search]
    took = np.flatnonzero(lower.any(axis=0))
    first = lower[:, took].argmax(axis=0)
    return search[took], first, cands[:, first, took]


def _geometric_medians(P: np.ndarray, M: np.ndarray, starts: np.ndarray) -> CenterUpdate:
    """Weighted geometric median of every cluster of (2, N) points P at once, by guarded Newton steps.

    A thin cluster, whose points all lie within 1e-2 times the data scale
    of the line through the first data point and the one farthest from it,
    first tries the data point at the weighted lower median along that line.
    A collinear cluster returns it, which is optimal since the cost is
    piecewise linear along the line; another thin cluster returns it exactly
    if its residual pull does not exceed its own mass, since an iterate
    would only creep along the narrow valley toward it.  Otherwise the
    iterate starts at the weighted mean.  The nearest data point is tested
    in the same way once, when the iterate first comes within 1e-3 times
    the data scale of it or right after a Weiszfeld step; an iterate on a
    data point that fails the test takes Kuhn's step off it.  Elsewhere it
    takes the closed-form 2x2 Newton step, halved up to three times until
    the cost strictly falls, or else the Weiszfeld step (which creeps
    toward a kink at an optimal data point, hence the test after it).  It
    stops when the Weiszfeld step no longer lowers the cost, the gradient
    norm is at most 1e-13 times the total mass, or a full Newton step is
    shorter than 1e-9 times the data scale.  The data scale is the diagonal
    of the cluster's bounding box.

    The clusters run in one lockstep loop.  Every sum over a cluster is
    one ``reduceat`` segment, so a cluster's arithmetic does not depend on
    the clusters beside it.  Each iteration prices the full Newton step of
    every running cluster; only the clusters that need them price the
    halvings and the Weiszfeld step (all four at once) or run a pull test,
    over copies of their own points (``_keep``).  A cluster that stops
    keeps its result, and its points leave the arrays.
    """
    c, N = len(starts), P.shape[1]
    sizes = np.diff(starts, append=N)
    coords = np.empty((2, c))
    iterations = np.ones(c, dtype=int)
    converged = np.ones(c, dtype=bool)
    span = np.maximum.reduceat(P, starts, axis=1) - np.minimum.reduceat(P, starts, axis=1)
    scale = np.maximum(np.hypot(span[0], span[1]), 1e-300)
    tested = np.zeros(N, dtype=bool)

    # The line through each cluster's first point and the point farthest from it.
    R = P - P[:, starts].repeat(sizes, axis=1)
    lengths = np.sqrt((R * R).sum(axis=0))
    longest = np.maximum.reduceat(lengths, starts)
    F = R[:, _first(lengths == longest.repeat(sizes), starts)].repeat(sizes, axis=1)
    # The largest distance from the line, times the line's length.
    across = np.maximum.reduceat(np.abs(R[0] * F[1] - R[1] * F[0]), starts)
    thin = across <= 1e-2 * scale * longest
    done = np.zeros(c, dtype=bool)
    if np.count_nonzero(thin):
        along = (R * F).sum(axis=0)
        value = np.full(c, np.nan)
        idx, _, thin_starts = _keep(thin, sizes)
        value[thin] = _lower_medians(along[idx], M[idx], thin_starts)
        median = _first(along == value.repeat(sizes), starts)
        done = thin & (across <= 1e-12 * scale * scale)
        tried = thin & ~done
        if np.count_nonzero(tried):
            idx, tried_sizes, tried_starts = _keep(tried, sizes)
            at = median[tried]
            done[tried] = _pull_tests(P.take(idx, axis=1), M[idx], tried_sizes, tried_starts,
                                      at - starts[tried] + tried_starts, 1e-12 * scale[tried])[0]
            tested[at] = True
        coords[:, done] = P[:, median[done]]

    # The clusters still running, their points in cluster order and their state.
    live = np.flatnonzero(~done)
    if live.size < c:
        idx, sizes, starts = _keep(~done, sizes)
        P, M, tested, scale = P.take(idx, axis=1), M[idx], tested[idx], scale[live]
    total = np.add.reduceat(M, starts)
    y = np.add.reduceat(M * P, starts, axis=1) / total
    D2, d, cost = _at(y, P, M, sizes, starts)
    creeping = np.zeros(live.size, dtype=bool)
    for it in range(1, WEISZFELD_MAX_ITER + 1):
        c = live.size
        if not c:
            break
        if it == 1 or stopped:
            snap, close, tiny, small_grad = 1e-12 * scale, 1e-3 * scale, 1e-9 * scale, 1e-13 * total
        stop = np.zeros(c, dtype=bool)  # clusters that give their result in this iteration
        newton = np.ones(c, dtype=bool)  # clusters that take a Newton or Weiszfeld step
        nearest = np.minimum.reduceat(d, starts)
        near = nearest <= close
        near |= creeping
        if np.count_nonzero(near):
            on_point = nearest <= snap
            j = _first(d == nearest.repeat(sizes), starts)
            test = near & (on_point | ~tested[j])
            if np.count_nonzero(test):
                # Priced over the tested clusters' points only; ``tests`` lists those clusters.
                tests = np.flatnonzero(test)
                idx, test_sizes, test_starts = _keep(test, sizes)
                at = j[tests]
                optimal, pull, norm, mass_here, inv_sum = _pull_tests(
                    P.take(idx, axis=1), M[idx], test_sizes, test_starts, at - starts[tests] + test_starts, snap[tests])
                tested[at] = True
                y[:, tests[optimal]] = P[:, at[optimal]]
                stop[tests[optimal]] = True
                newton[tests[optimal]] = False
                # Kuhn's step off a data point that is not optimal, along the pull.
                kuhn = ~optimal & on_point[tests]
                if np.count_nonzero(kuhn):
                    y[:, tests[kuhn]] = (P[:, at[kuhn]]
                                         + (1.0 - mass_here[kuhn] / norm[kuhn]) * pull[:, kuhn] / inv_sum[kuhn])
                    newton[tests[kuhn]] = False
                    D2, d, cost = _at(y, P, M, sizes, starts)
        # Every point of a Newton cluster is farther than snap from its iterate.
        everywhere = np.count_nonzero(newton) == c
        inv = M / d if everywhere else np.divide(M, d, out=np.zeros(len(M)), where=newton.repeat(sizes))
        T = inv * D2
        g = np.add.reduceat(T, starts, axis=1)
        flat = np.hypot(g[0], g[1]) <= small_grad
        flat &= newton
        if np.count_nonzero(flat):
            stop |= flat
            newton &= ~flat
            everywhere = False
        # The Hessian is sum m_i / d_i^3 [[dy^2, -dx dy], [-dx dy, dx^2]]; its inverse is
        # the weighted second moment m = sum m_i / d_i^3 (dx, dy)^T (dx, dy) over its determinant.
        dd = d * d
        U = T / dd if everywhere else np.divide(T, dd, out=np.zeros(T.shape), where=newton.repeat(sizes))
        m = np.add.reduceat((U[:, None] * D2).reshape(4, -1), starts, axis=1)
        det = m[0] * m[3] - m[1] * m[2]
        has_step = det > 0
        has_step &= newton
        step = np.divide((m.reshape(2, 2, c) * g).sum(axis=1), det, out=np.zeros((2, c)), where=has_step)
        # The full Newton step, priced for every cluster (one without a step stays put).
        cand = y - step
        cD2, cd, ccost = _at(cand, P, M, sizes, starts)
        better = ccost < cost
        better &= has_step
        taken = np.count_nonzero(better)
        if taken == c:
            y, D2, d, cost = cand, cD2, cd, ccost
        elif taken:
            moved = better.repeat(sizes)
            y[:, better], cost[better] = cand[:, better], ccost[better]
            D2, d = np.where(moved, cD2, D2), np.where(moved, cd, d)
        creeping &= ~better
        searching = newton & ~better
        if np.count_nonzero(searching):
            # Its three halvings, then the Weiszfeld step; the first that lowers the cost wins.
            took, first, to = _search(P, M, inv, y, step, cost, has_step, searching, sizes)
            if took.size:
                y[:, took] = to
                D2, d, cost = _at(y, P, M, sizes, starts)
                creeping[took] = first == 3
                searching[took] = False
        # A cluster that no step improves stops where it is, as does one whose full Newton step is tiny.
        stop |= searching
        stop |= has_step & ~searching & (np.hypot(step[0], step[1]) < tiny)
        stopped = np.count_nonzero(stop)
        if stopped:
            coords[:, live[stop]] = y[:, stop]
            iterations[live[stop]] = it
            keep = ~stop
            idx, sizes, starts = _keep(keep, sizes)
            P, D2, M, tested, d = P.take(idx, axis=1), D2.take(idx, axis=1), M[idx], tested[idx], d[idx]
            live, scale, total, cost, creeping = live[keep], scale[keep], total[keep], cost[keep], creeping[keep]
            y = y[:, keep]
    coords[:, live] = y
    iterations[live] = WEISZFELD_MAX_ITER
    converged[live] = False
    return CenterUpdate(coords.T.copy(), iterations, converged)


def update_centers_continuous(kind: str, xy: np.ndarray, masses: np.ndarray, starts) -> CenterUpdate:
    """Exact continuous relocation of c centers at once, one per cluster.

    ``xy`` and ``masses`` hold the clusters' points one cluster after
    another, and ``starts`` the offset of each cluster's first point, from
    0 up.  Gives the (c, 2) locations with per-cluster ``iterations`` and
    ``converged`` arrays.  A cluster gets the same result as it would alone;
    one without mass raises EmptyCluster.
    """
    P = np.asarray(xy, dtype=float).reshape(-1, 2).T.copy()
    masses = np.asarray(masses, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    if not starts.size or starts[0] != 0:
        raise ValueError("cluster starts must begin at point 0")
    # A cluster without points has no mass either.
    totals = np.add.reduceat(masses, starts) if (np.diff(starts, append=P.shape[1]) > 0).all() else np.zeros(1)
    if not (totals > 0).all():
        raise EmptyCluster("no mass assigned to this center")
    c = len(starts)
    if kind == metrics.EUCLIDEAN:
        return _geometric_medians(P, masses, starts)
    if kind == metrics.SQEUCLIDEAN:
        coords = (np.add.reduceat(masses * P, starts, axis=1) / totals).T
    elif kind == metrics.MANHATTAN:
        coords = np.stack([_lower_medians(P[0], masses, starts), _lower_medians(P[1], masses, starts)], axis=1)
    else:
        raise ValueError(f"no continuous location step for metric kind {kind!r}")
    return CenterUpdate(coords, np.ones(c, dtype=int), np.ones(c, dtype=bool))


def cluster_costs_continuous(kind: str, xy: np.ndarray, masses: np.ndarray, starts, locations) -> np.ndarray:
    """Each cluster's cost at its own location, with clusters laid out as for ``update_centers_continuous``."""
    xy = np.asarray(xy, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    diff = xy - np.repeat(np.asarray(locations, dtype=float), np.diff(starts, append=len(xy)), axis=0)
    if kind == metrics.MANHATTAN:
        np.abs(diff, out=diff)
    else:
        diff *= diff
    # The two terms added as ``sum(axis=1)`` adds them, in one pass over the points rather than one per point.
    d = diff[:, 0] + diff[:, 1]
    if kind == metrics.EUCLIDEAN:
        np.sqrt(d, out=d)
    return np.add.reduceat(np.asarray(masses, dtype=float) * d, starts)


def add_mass_change(totals: np.ndarray, site_distances: np.ndarray, change: np.ndarray, rows) -> None:
    """Add to kept totals T[j, h] = sum_i m_ij S[i, h], in place, the (c, p) mass change of the points ``rows``.

    ``rows`` are sorted.  T then holds a fresh product's terms summed in
    another order, so it agrees with one to rounding only.
    """
    # Sorted rows as many as S has are all of them: no copy of S then.
    totals += change @ (site_distances if len(rows) == len(site_distances) else site_distances[rows])


def update_center_discrete(site_distances: np.ndarray, change: np.ndarray, *, totals: np.ndarray, rows: np.ndarray,
                           empty: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """Candidate site of each of ``clusters`` minimizing its weighted distance sum; ties to the lowest index.

    A descent's kept (k, s) ``totals`` first take in ``change``, the
    (k, p) mass change of the points ``rows`` (``add_mass_change``); the
    rows of the clusters in the mask ``empty`` are then set to exactly 0.
    One of ``clusters`` in ``empty`` raises EmptyCluster.
    """
    if empty[clusters].any():
        raise EmptyCluster("no mass assigned to this center")
    add_mass_change(totals, site_distances, change, rows)
    totals[empty] = 0.0
    return np.argmin(totals[clusters], axis=1)


def decide_release(gain: float, penalty: float, released: bool) -> bool:
    """Whether a fixed center is released after its location step.

    ``gain`` is the cluster's cost at the fixed location minus its cost at
    the chosen free location.  An attached center is released when the gain
    beats the penalty strictly; a released center reattaches when the gain
    falls strictly below it, so a gain exactly equal to the penalty keeps
    the current state.
    """
    return gain >= penalty if released else gain > penalty
