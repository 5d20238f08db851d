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
_HALVINGS = np.array([[[2.0]], [[4.0]], [[8.0]]])
_SCALED = np.array([[1e-12], [1e-3], [1e-9]])


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
    return clusters.repeat(sizes).nonzero()[0], kept, kept.cumsum() - kept


def _at(y: np.ndarray, P: np.ndarray, M: np.ndarray, sizes: np.ndarray, starts: np.ndarray):
    """Offsets (2, N) from the points to their cluster's iterate in the (2, c) y, their lengths, each cluster's cost."""
    D2 = y.repeat(sizes, axis=1)
    D2 -= P
    sq = D2 * D2
    d = sq[0] + sq[1]
    np.sqrt(d, out=d)
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


def _search(P, M, inv, y, step, cost, searching, sizes):
    """The first of its three halved Newton steps and its Weiszfeld step that lowers each searching cluster's cost.

    The clusters in the mask ``searching`` price all four at once, over
    copies of their own points (``_keep``): each sum is still one
    ``reduceat`` segment per cluster.  A cluster without a Newton step
    (zero) prices its own iterate three times, by the arithmetic that
    priced its cost there, so at exactly its cost, and only its Weiszfeld
    step can lower it.  Gives the searching clusters,
    by index, which step each takes (3 for the Weiszfeld step, 4 for none)
    and where it leads, (2, t): its own iterate when no step lowers the
    cost.
    """
    search = searching.nonzero()[0]
    idx, sizes, starts = _keep(searching, sizes)
    P, M, inv = P.take(idx, axis=1), M[idx], inv[idx]
    t = len(search)
    cands = np.empty((5, 2, t))  # the halvings, the Weiszfeld step and the iterate itself
    cands[4] = y[:, search]
    np.divide(step[:, search], _HALVINGS, out=cands[:3])
    np.subtract(cands[4], cands[:3], out=cands[:3])
    np.divide(np.add.reduceat(inv * P, starts, axis=1), np.add.reduceat(inv, starts), out=cands[3])
    sq = cands[:4].repeat(sizes, axis=2)
    sq -= P
    sq *= sq
    dist = sq[:, 0] + sq[:, 1]
    np.sqrt(dist, out=dist)
    dist *= M
    lower = np.empty((5, t), dtype=bool)
    np.less(np.add.reduceat(dist, starts, axis=1), cost[search], out=lower[:4])
    lower[4] = True
    first = lower.argmax(axis=0)
    return search, first, cands[first, :, np.arange(t)].T


def _newton_steps(m: np.ndarray, g: np.ndarray, newton: np.ndarray):
    """Each cluster's Newton step (2, c) from its gradient g and the adjugate m (4, c) of its Hessian.

    The adjugate is the Hessian's inverse times its determinant, which is
    also the adjugate's own.  Also gives whether a cluster has a step: it
    is in the mask ``newton`` and that determinant is positive.  Any other
    cluster's step is zero.
    """
    det = m[0] * m[3] - m[1] * m[2]
    has_step = det > 0
    has_step &= newton
    mg = m.reshape(2, 2, -1) * g
    return np.divide(mg[:, 0] + mg[:, 1], det, out=np.zeros(g.shape), where=has_step), has_step


def _geometric_medians(P: np.ndarray, M: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                       total: np.ndarray) -> CenterUpdate:
    """Weighted geometric median of every cluster of (2, N) points P at once, by guarded Newton steps.

    ``sizes`` and ``total`` are each cluster's point count and mass.  A
    thin cluster, whose points all lie within 1e-2 times the data scale
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

    A round costs its count of numpy calls more than its arithmetic, so a
    round makes only the calls some running cluster needs.  Every cluster
    that goes on stands at its full-step candidate, unless it takes a
    search step, so the candidate's offsets replace the old ones whole,
    without a merge.  After a search step every cluster is priced again,
    once the stopped clusters' points have left.  The tolerances are
    computed once per call, and the search's candidates lie one (2, t)
    block per step.  A solve of several restarts sends each distinct
    cluster here once (``solver._finished``).  Replaying the location
    calls of a seed-1 euclid-outlier pass (``scripts/location_replay.py``),
    these cuts alone take 0.83-0.85 of the time of the loop before them,
    and with that memo the pass's calls take 0.68 of the time.
    """
    c, N = len(starts), P.shape[1]
    coords = np.empty((2, c))
    iterations = np.ones(c, dtype=int)
    converged = np.ones(c, dtype=bool)
    span = np.maximum.reduceat(P, starts, axis=1) - np.minimum.reduceat(P, starts, axis=1)
    scale = np.maximum(np.hypot(span[0], span[1]), 1e-300)
    tested = np.zeros(N, dtype=bool)

    # The line through each cluster's first point and the point farthest from it.
    R = P - P[:, starts].repeat(sizes, axis=1)
    sq = R * R
    lengths = sq[0] + sq[1]
    np.sqrt(lengths, out=lengths)
    longest = np.maximum.reduceat(lengths, starts)
    F = R[:, _first(lengths == longest.repeat(sizes), starts)].repeat(sizes, axis=1)
    # The largest distance from the line, times the line's length.
    across = np.maximum.reduceat(np.abs(R[0] * F[1] - R[1] * F[0]), starts)
    thin = across <= 1e-2 * scale * longest
    done = np.zeros(c, dtype=bool)
    if np.count_nonzero(thin):
        RF = R * F
        along = RF[0] + RF[1]
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

    # Each cluster's tolerances: snap, close and tiny times its data scale, and the flat gradient norm.
    limits = np.empty((4, c))
    np.multiply(scale, _SCALED, out=limits[:3])
    np.multiply(1e-13, total, out=limits[3])
    # The clusters still running, their points in cluster order and their state.
    live = (~done).nonzero()[0]
    if live.size < c:
        idx, sizes, starts = _keep(~done, sizes)
        P, M, tested, limits, total = P.take(idx, axis=1), M[idx], tested[idx], limits[:, live], total[live]
    y = np.add.reduceat(M * P, starts, axis=1) / total
    D2, d, cost = _at(y, P, M, sizes, starts)
    creeping = np.zeros(live.size, dtype=bool)
    snap, close, tiny, small_grad = limits
    for it in range(1, WEISZFELD_MAX_ITER + 1):
        c = live.size
        if not c:
            break
        stop = np.zeros(c, dtype=bool)  # clusters that give their result in this iteration
        newton = ~stop  # clusters that take a Newton or Weiszfeld step
        everywhere = True  # every cluster is a Newton cluster
        nearest = np.minimum.reduceat(d, starts)
        near = nearest <= close
        near |= creeping
        if np.count_nonzero(near):
            on_point = nearest <= snap
            j = _first(d == nearest.repeat(sizes), starts)
            test = near & (on_point | ~tested[j])
            if np.count_nonzero(test):
                # Priced over the tested clusters' points only; ``tests`` lists those clusters.
                tests = test.nonzero()[0]
                idx, test_sizes, test_starts = _keep(test, sizes)
                at = j[tests]
                optimal, pull, norm, mass_here, inv_sum = _pull_tests(
                    P.take(idx, axis=1), M[idx], test_sizes, test_starts, at - starts[tests] + test_starts, snap[tests])
                tested[at] = True
                y[:, tests[optimal]] = P[:, at[optimal]]
                stop[tests[optimal]] = True
                newton[tests[optimal]] = False
                everywhere = not np.count_nonzero(optimal)
                # Kuhn's step off a data point that is not optimal, along the pull.
                kuhn = ~optimal & on_point[tests]
                if np.count_nonzero(kuhn):
                    y[:, tests[kuhn]] = (P[:, at[kuhn]]
                                         + (1.0 - mass_here[kuhn] / norm[kuhn]) * pull[:, kuhn] / inv_sum[kuhn])
                    newton[tests[kuhn]] = False
                    everywhere = False
                    D2, d, cost = _at(y, P, M, sizes, starts)
        # Every point of a Newton cluster is farther than snap from its iterate.
        inv = M / d if everywhere else np.divide(M, d, out=np.zeros(len(M)), where=newton.repeat(sizes))
        T = inv * D2
        g = np.add.reduceat(T, starts, axis=1)
        flat = np.hypot(g[0], g[1]) <= small_grad
        if not everywhere:
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
        step, has_step = _newton_steps(m, g, newton)
        # The full Newton step, priced for every cluster (one without a step stays put).
        cand = y - step
        D2, d, ccost = _at(cand, P, M, sizes, starts)
        better = ccost < cost
        better &= has_step
        # Every cluster that goes on now stands at its candidate: one whose step is better moved there, one
        # without a step stands there already, and one that searches takes a search step below or stops.
        np.copyto(y, cand, where=better)
        np.copyto(cost, ccost, where=better)
        creeping[better] = False
        searching = newton ^ better
        searched = False  # whether a cluster took a search step, so that every cluster is priced again below
        if np.count_nonzero(searching):
            # Its three halvings, then the Weiszfeld step; the first that lowers the cost wins.
            search, first, to = _search(P, M, inv, y, step, cost, searching, sizes)
            y[:, search] = to
            creeping[search] = first == 3
            searching[search] = first == 4
            searched = np.count_nonzero(searching) < len(search)
        # A cluster that no step improves stops where it is, as does one whose full Newton step is tiny.
        stop |= searching | (has_step & (np.hypot(step[0], step[1]) < tiny))
        stopped = np.count_nonzero(stop)
        if stopped:
            ended = live[stop]
            coords[:, ended] = y[:, stop]
            iterations[ended] = it
            keep = ~stop
            idx, sizes, starts = _keep(keep, sizes)
            P, M, tested = P.take(idx, axis=1), M[idx], tested[idx]
            if not searched:
                D2, d = D2.take(idx, axis=1), d[idx]
            live, limits, cost, creeping, y = live[keep], limits[:, keep], cost[keep], creeping[keep], y[:, keep]
            snap, close, tiny, small_grad = limits
        if searched:
            D2, d, cost = _at(y, P, M, sizes, starts)
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
    one without mass raises EmptyCluster.  Points not of shape (n, 2), a
    mass count other than n, starts that are not one row rising from 0 to
    at most n, a coordinate that is not finite, a mass that is negative or
    not finite and a cluster whose total mass overflows raise ValueError.
    One pass over the coordinates and one over the masses check them; the
    masses' finiteness is read from the cluster totals the step sums anyway.
    """
    xy = np.asarray(xy, dtype=float)
    masses = np.asarray(masses, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"points of shape {xy.shape}, not (n, 2)")
    n = len(xy)
    if masses.shape != (n,):
        raise ValueError(f"masses of shape {masses.shape} for {n} points")
    if starts.ndim != 1 or not starts.size or starts[0] != 0:
        raise ValueError("cluster starts must be one row beginning at point 0")
    if not np.isfinite(xy).all():
        raise ValueError("point coordinates must be finite")
    if not masses.min(initial=0.0) >= 0.0:  # a NaN fails too; an infinite mass fails on its cluster's total below
        raise ValueError("masses must be finite and non-negative")
    P = xy.T.copy()
    sizes = np.concatenate([starts[1:], [n]]) - starts
    if not (sizes > 0).all():
        if (sizes < 0).any():
            raise ValueError("cluster starts must not fall, nor pass the last point")
        raise EmptyCluster("no mass assigned to this center")  # a cluster without points has no mass either
    totals = np.add.reduceat(masses, starts)
    if not (totals > 0).all():
        raise EmptyCluster("no mass assigned to this center")
    if not totals.max() < np.inf:
        raise ValueError("masses must be finite, and so must each cluster's total")
    c = len(starts)
    if kind == metrics.EUCLIDEAN:
        return _geometric_medians(P, masses, starts, sizes, totals)
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
