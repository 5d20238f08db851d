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


def weiszfeld(xy: np.ndarray, masses: np.ndarray, *, scale: float | None = None) -> CenterUpdate:
    """Weighted geometric median by guarded Newton steps.

    Collinear data returns the data point at the weighted lower median along
    the line, which is optimal since the cost is piecewise linear there.
    Otherwise the iterate starts at the weighted mean.  The nearest data
    point is tested once, when the iterate first comes within 1e-3 times
    the data scale of it or right after a Weiszfeld step, and returned
    exactly if its residual pull does not exceed its own mass; an iterate
    on a data point that fails this test takes Kuhn's step off it.
    Elsewhere it takes the closed-form 2x2 Newton step, halved up to three
    times until the cost strictly falls, or else the Weiszfeld step (which
    creeps toward a kink at an optimal data point, hence the test after
    it).  It stops when the Weiszfeld step no longer lowers the cost, the
    gradient norm is at most 1e-13 times the total mass, or a full Newton
    step is shorter than 1e-9 times the data scale.
    """
    xy = np.asarray(xy, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if scale is None:
        span = xy.max(axis=0) - xy.min(axis=0)
        scale = float(max(np.hypot(span[0], span[1]), 1e-300))
    rel = xy - xy[0]
    far = rel[int(np.argmax(np.hypot(rel[:, 0], rel[:, 1])))]
    if (np.abs(rel[:, 0] * far[1] - rel[:, 1] * far[0]) <= 1e-12 * scale * scale).all():
        along = rel @ far
        return CenterUpdate(xy[int(np.argmax(along == weighted_lower_median(along, masses)))].copy(), 1, True)

    snap, near = 1e-12 * scale, 1e-3 * scale
    tested: set[int] = set()
    creeping = False

    def at(y):
        diff = y - xy
        d = np.hypot(diff[:, 0], diff[:, 1])
        return y, diff, d, float(masses @ d)

    y, diff, d, cost = at(weighted_mean(xy, masses))
    for it in range(1, WEISZFELD_MAX_ITER + 1):
        j = int(np.argmin(d))
        on_point = d[j] <= snap
        if on_point or ((d[j] <= near or creeping) and j not in tested):
            tested.add(j)
            here = np.hypot(*(xy - xy[j]).T) <= snap
            pull, inv_sum = _pull_at(xy, masses, xy[j], here)
            pull_norm, mass_here = float(np.hypot(pull[0], pull[1])), float(masses[here].sum())
            if pull_norm <= mass_here:
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


def update_center_discrete(site_distances: np.ndarray, masses: np.ndarray) -> int:
    """Candidate site minimizing the weighted distance sum; ties to the lowest index."""
    masses = np.asarray(masses, dtype=float)
    if not float(np.sum(masses)) > 0:
        raise EmptyCluster("no mass assigned to this center")
    totals = masses @ site_distances
    return int(np.argmin(totals))


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
