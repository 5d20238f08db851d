"""Location step: relocate one center given the mass assigned to it.

Continuous placement uses the exact minimizer for each metric: weighted
mean (squared Euclidean), geometric median via Weiszfeld iteration
(Euclidean) and the coordinatewise weighted lower median (Manhattan).
Discrete placement picks the candidate site minimizing the weighted
distance sum.  Fixed centers are only moved when the improvement beats the
release penalty, and move back when it no longer does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import metrics
from .errors import EmptyCluster

WEISZFELD_MAX_ITER = 1000


class CenterUpdate(NamedTuple):
    coords: np.ndarray
    iterations: int
    converged: bool


class ReleaseDecision(NamedTuple):
    released: bool
    location: object  # coordinate array, or site index in discrete placement


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


def _newton_polish(xy: np.ndarray, masses: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """Sharpen a Weiszfeld iterate with guarded Newton steps.

    Fixed-point iteration contracts slowly in flat valleys; away from the
    data points the objective is smooth, so a few damped Newton steps push
    the iterate to machine-precision optimality.  Every step is accepted
    only if it does not increase the cost.
    """
    for _ in range(30):
        diff = y - xy
        d = np.hypot(diff[:, 0], diff[:, 1])
        if (d <= 1e-12 * scale).any():
            break
        inv = masses / d
        grad = (diff * inv[:, None]).sum(axis=0)
        if np.hypot(grad[0], grad[1]) <= 1e-13 * masses.sum():
            break
        u = diff / d[:, None]
        hess = inv.sum() * np.eye(2) - (inv[:, None, None] * (u[:, :, None] * u[:, None, :])).sum(axis=0)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        cost_here = float(masses @ d)
        moved = False
        for _ in range(20):
            cand = y - step
            cost_cand = float(masses @ np.hypot(*(cand - xy).T))
            if cost_cand <= cost_here:
                y = cand
                moved = cost_here - cost_cand > 0
                break
            step = step / 2.0
        if not moved:
            break
    return y


def weiszfeld(xy: np.ndarray, masses: np.ndarray, *, scale: float | None = None) -> CenterUpdate:
    """Weighted geometric median with the coincident-point correction.

    Iterates until the step length drops below 1e-9 times the data scale,
    then sharpens the result with guarded Newton steps.  When the iterate
    lands on a data point the optimality of that point is tested through
    the residual pull; if the pull does not exceed the point's own mass
    the point is the exact minimizer, otherwise the iteration steps off it
    along the pull direction.  The fixed-point iteration closes in on an
    optimal data point only by the factor pull/mass per step, so the same
    test also runs once per distinct data point the iterate comes within
    1e-3 times the data scale of, and returns that point exactly when it
    passes.
    """
    xy = np.asarray(xy, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if scale is None:
        span = xy.max(axis=0) - xy.min(axis=0)
        scale = float(max(np.hypot(span[0], span[1]), 1e-300))
    tol = 1e-9 * scale
    snap = 1e-12 * scale
    near = 1e-3 * scale
    tested: set[int] = set()

    y = weighted_mean(xy, masses)
    for it in range(1, WEISZFELD_MAX_ITER + 1):
        d = np.sqrt(((xy - y) ** 2).sum(axis=1))
        nearest = int(np.argmin(d))
        if snap < d[nearest] <= near and nearest not in tested:
            tested.add(nearest)
            anchor = xy[nearest]
            at_anchor = np.sqrt(((xy - anchor) ** 2).sum(axis=1)) <= snap
            pull, _ = _pull_at(xy, masses, anchor, at_anchor)
            if float(np.hypot(pull[0], pull[1])) <= float(masses[at_anchor].sum()):
                return CenterUpdate(anchor.copy(), it, True)
        coincident = d <= snap
        if coincident.any():
            j = int(np.argmax(coincident))
            anchor = xy[j]
            pull, inv_sum = _pull_at(xy, masses, anchor, coincident)
            pull_norm = float(np.hypot(pull[0], pull[1]))
            mass_here = float(masses[coincident].sum())
            if pull_norm <= mass_here:
                return CenterUpdate(anchor.copy(), it, True)
            # Kuhn correction: step off the data point along the pull.
            step = (1.0 - mass_here / pull_norm) * pull / inv_sum
            y_next = anchor + step
        else:
            inv = masses / d
            y_next = inv @ xy / inv.sum()
        move = float(np.hypot(*(y_next - y)))
        y = y_next
        if move < tol:
            return CenterUpdate(_newton_polish(xy, masses, y, scale), it, True)
    return CenterUpdate(_newton_polish(xy, masses, y, scale), WEISZFELD_MAX_ITER, False)


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


def decide_release(
    problem,
    fixed_location,
    xy_or_sites,
    masses: np.ndarray,
    currently_released: bool,
) -> ReleaseDecision:
    """Release/reattach decision for one fixed center.

    The center is released when moving to the free optimum lowers its
    distance loss by strictly more than the release penalty; a released
    center reattaches when the remaining gain is strictly below the
    penalty.  A gain exactly equal to the penalty keeps the current state.
    """
    penalty = problem.centers.release_penalty
    masses = np.asarray(masses, dtype=float)
    total = float(np.sum(masses))

    if problem.centers.placement == "discrete":
        site_distances = xy_or_sites  # rows already restricted to this cluster
        if not total > 0:
            return ReleaseDecision(False, int(fixed_location))
        best = update_center_discrete(site_distances, masses)
        loss_fixed = float(masses @ site_distances[:, int(fixed_location)])
        loss_free = float(masses @ site_distances[:, best])
        free_loc = best
    else:
        if not total > 0:
            return ReleaseDecision(False, np.asarray(fixed_location, dtype=float))
        update = update_center_continuous(problem.metric.kind, xy_or_sites, masses)
        loss_fixed = cluster_cost_continuous(problem.metric.kind, xy_or_sites, masses, fixed_location)
        loss_free = cluster_cost_continuous(problem.metric.kind, xy_or_sites, masses, update.coords)
        free_loc = update.coords

    gain = loss_fixed - loss_free
    if math.isinf(penalty):
        return ReleaseDecision(False, _fixed_repr(problem, fixed_location))
    if currently_released:
        if gain < penalty:
            return ReleaseDecision(False, _fixed_repr(problem, fixed_location))
        return ReleaseDecision(True, free_loc)
    if gain > penalty:
        return ReleaseDecision(True, free_loc)
    return ReleaseDecision(False, _fixed_repr(problem, fixed_location))


def _fixed_repr(problem, fixed_location):
    if problem.centers.placement == "discrete":
        return int(fixed_location)
    return np.asarray(fixed_location, dtype=float)
