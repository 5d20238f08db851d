"""Location step: relocate one center given the mass assigned to it.

Continuous placement uses the exact minimizer for each metric: weighted
mean (squared Euclidean), geometric median by guarded Newton steps
(Euclidean) and the coordinatewise weighted lower median (Manhattan).
Discrete placement picks the candidate site minimizing the weighted
distance sum.  ``decide_release`` is the release rule for a fixed center,
applied by the solver to the gain of the location it chose.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import metrics
from .errors import EmptyCluster

WEISZFELD_MAX_ITER = 1000
_HALVINGS = np.array([[1.0], [2.0], [4.0], [8.0]])


class CenterUpdate(NamedTuple):
    coords: np.ndarray
    iterations: int
    converged: bool


def weighted_mean(xy: np.ndarray, masses: np.ndarray) -> np.ndarray:
    return np.asarray(masses, dtype=float) @ np.asarray(xy, dtype=float) / float(np.sum(masses))


def weighted_lower_median(values: np.ndarray, masses: np.ndarray) -> float:
    """Smallest value where the cumulative mass reaches half the total."""
    order = np.argsort(values, kind="stable")
    csum = np.cumsum(masses[order])
    half = csum[-1] / 2.0
    idx = int(np.searchsorted(csum, half))
    return float(values[order[min(idx, len(order) - 1)]])


def _pull_at(xy: np.ndarray, masses: np.ndarray, anchor: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, float]:
    d = np.sqrt(((xy - anchor) ** 2).sum(axis=1))
    keep = ~skip
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(keep, masses / np.where(d > 0, d, 1.0), 0.0)
    pull = ((xy - anchor) * inv[:, None]).sum(axis=0)
    return pull, float(inv.sum())


def weiszfeld(xy: np.ndarray, masses: np.ndarray) -> CenterUpdate:
    """Weighted geometric median by guarded Newton steps.

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
    """
    xy = np.asarray(xy, dtype=float)
    masses = np.asarray(masses, dtype=float)
    span = xy.max(axis=0) - xy.min(axis=0)
    scale = float(max(np.hypot(span[0], span[1]), 1e-300))
    snap, near = 1e-12 * scale, 1e-3 * scale
    tested: set[int] = set()
    creeping = False

    def pull_test(j):
        """Whether data point j is optimal, with its residual pull, mass and inverse-distance sum."""
        tested.add(j)
        here = np.hypot(*(xy - xy[j]).T) <= snap
        pull, inv_sum = _pull_at(xy, masses, xy[j], here)
        pull_norm, mass_here = float(np.hypot(pull[0], pull[1])), float(masses[here].sum())
        return pull_norm <= mass_here, pull, pull_norm, mass_here, inv_sum

    rel = xy - xy[0]
    lengths = np.hypot(rel[:, 0], rel[:, 1])
    far = rel[int(np.argmax(lengths))]
    # The largest distance from the line, times the line's length.
    across = float(np.abs(rel[:, 0] * far[1] - rel[:, 1] * far[0]).max())
    if across <= 1e-2 * scale * lengths.max():
        along = rel @ far
        median = int(np.argmax(along == weighted_lower_median(along, masses)))
        if across <= 1e-12 * scale * scale or pull_test(median)[0]:
            return CenterUpdate(xy[median].copy(), 1, True)

    def at(y):
        diff = y - xy
        d = np.hypot(diff[:, 0], diff[:, 1])
        return y, diff, d, float(masses @ d)

    y, diff, d, cost = at(weighted_mean(xy, masses))
    for it in range(1, WEISZFELD_MAX_ITER + 1):
        j = int(np.argmin(d))
        on_point = d[j] <= snap
        if on_point or ((d[j] <= near or creeping) and j not in tested):
            optimal, pull, pull_norm, mass_here, inv_sum = pull_test(j)
            if optimal:
                return CenterUpdate(xy[j].copy(), it, True)
            if on_point:
                # Kuhn's step off the data point along the pull.
                y, diff, d, cost = at(xy[j] + (1.0 - mass_here / pull_norm) * pull / inv_sum)
                continue
        inv = masses / d
        grad = inv @ diff
        if np.hypot(grad[0], grad[1]) <= 1e-13 * masses.sum():
            return CenterUpdate(y, it, True)
        # The Hessian is sum m_i / d_i^3 [[dy^2, -dx dy], [-dx dy, dx^2]]; its
        # inverse is this weighted second-moment matrix over the determinant.
        moment = (inv / (d * d) * diff.T) @ diff
        det = moment[0, 0] * moment[1, 1] - moment[0, 1] * moment[1, 0]
        step = moment @ grad / det if det > 0 else None
        # The Newton step and its three halvings, then the Weiszfeld step (None).
        newton = () if step is None else y - step / _HALVINGS
        for cand in (*newton, None):
            state = at(inv @ xy / inv.sum() if cand is None else cand)
            if state[3] < cost:
                break
        else:
            return CenterUpdate(y, it, True)
        y, diff, d, cost = state
        creeping = cand is None
        if step is not None and np.hypot(step[0], step[1]) < 1e-9 * scale:
            return CenterUpdate(y, it, True)
    return CenterUpdate(y, WEISZFELD_MAX_ITER, False)


def update_center_continuous(kind: str, xy: np.ndarray, masses: np.ndarray) -> CenterUpdate:
    """Exact continuous relocation of one center for a geometric metric."""
    xy = np.asarray(xy, dtype=float)
    masses = np.asarray(masses, dtype=float)
    total = float(np.sum(masses))
    if not total > 0:
        raise EmptyCluster("no mass assigned to this center")
    if kind == metrics.SQEUCLIDEAN:
        return CenterUpdate(weighted_mean(xy, masses), 1, True)
    if kind == metrics.EUCLIDEAN:
        return weiszfeld(xy, masses)
    if kind == metrics.MANHATTAN:
        coords = np.array(
            [weighted_lower_median(xy[:, 0], masses), weighted_lower_median(xy[:, 1], masses)]
        )
        return CenterUpdate(coords, 1, True)
    raise ValueError(f"no continuous location step for metric kind {kind!r}")


def update_center_discrete(site_distances: np.ndarray, masses: np.ndarray):
    """Candidate site minimizing the weighted distance sum; ties to the lowest index.

    ``masses`` holds one cluster's mass per row of ``site_distances`` and
    gives one site index.  An (n, c) matrix with one cluster per column is
    answered by one product: it gives the c sites together with the (c, s)
    weighted sums they minimize, from which a caller prices other sites.
    """
    masses = np.asarray(masses, dtype=float)
    if not (masses.sum(axis=0) > 0).all():
        raise EmptyCluster("no mass assigned to this center")
    if masses.ndim == 1:
        return int(np.argmin(masses @ site_distances))
    totals = masses.T @ site_distances
    return np.argmin(totals, axis=1), totals


def cluster_cost_continuous(kind: str, xy: np.ndarray, masses: np.ndarray, location) -> float:
    d = metrics.geometric_distances(kind, xy, np.asarray(location, dtype=float)[None, :])[:, 0]
    return float(masses @ d)


def decide_release(gain: float, penalty: float, released: bool) -> bool:
    """Whether a fixed center is released after its location step.

    ``gain`` is the cluster's cost at the fixed location minus its cost at
    the chosen free location.  An attached center is released when the gain
    beats the penalty strictly; a released center reattaches when the gain
    falls strictly below it, so a gain exactly equal to the penalty keeps
    the current state.
    """
    return gain >= penalty if released else gain > penalty
