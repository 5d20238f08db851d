"""Partition-quality metrics: adjusted Rand index and distance summaries."""

from __future__ import annotations

from math import comb

import numpy as np

from . import metrics
from .errors import LengthMismatch
from .model import Problem, Solution

PER_POINT = "per_point"
PER_DEMAND = "per_demand"


def adjusted_rand_index(partition_a, partition_b) -> float:
    """Hubert-Arabie ARI from the pair-counting contingency table.

    Label values are arbitrary; only the grouping matters.  Returns 1.0
    when both partitions are identical up to relabeling (including the
    degenerate all-singleton / single-cluster cases where the chance
    correction has a zero denominator).
    """
    a = list(partition_a)
    b = list(partition_b)
    if len(a) != len(b):
        raise LengthMismatch(f"partitions have lengths {len(a)} and {len(b)}")
    n = len(a)
    table: dict[tuple, int] = {}
    rows: dict[object, int] = {}
    cols: dict[object, int] = {}
    for la, lb in zip(a, b):
        table[(la, lb)] = table.get((la, lb), 0) + 1
        rows[la] = rows.get(la, 0) + 1
        cols[lb] = cols.get(lb, 0) + 1
    index = sum(comb(v, 2) for v in table.values())
    sum_a = sum(comb(v, 2) for v in rows.values())
    sum_b = sum(comb(v, 2) for v in cols.values())
    pairs = comb(n, 2)
    expected = sum_a * sum_b / pairs if pairs else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def solution_labels(solution: Solution) -> np.ndarray:
    """Hardened labels for a solution; outliers get the noise label -1."""
    return solution.assignment.hard_labels()


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    # Midpoint-rule weighted quantile with linear interpolation.
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    t = (cum - 0.5 * w) / cum[-1]
    return float(np.interp(q, t, v))


def distance_summary(problem: Problem, solution: Solution, weighting: str = PER_POINT) -> dict[str, float]:
    """Mean, median and 95% quantile of point-to-assigned-center distances.

    Fractional memberships give each point its membership-weighted average
    distance over real centers; fully-outlier points are excluded.  The
    default ``per_point`` statistics use the type-7 quantile; ``per_demand``
    weights each point by its demand w.
    """
    D = metrics.distances_to_centers(problem, solution.centers)
    y = solution.assignment.center_block
    mass = y.sum(axis=1)
    keep = mass > 1e-12
    if not keep.any():
        return {"mean": float("nan"), "median": float("nan"), "q95": float("nan")}
    dist = (D[keep] * y[keep]).sum(axis=1) / mass[keep]
    return summarize_distances(dist, problem.weights[keep], weighting)


def summarize_distances(dist: np.ndarray, weights: np.ndarray, weighting: str = PER_POINT) -> dict[str, float]:
    """``distance_summary`` of given per-point distances and demands ``weights``."""
    if weighting == PER_POINT:
        return {
            "mean": float(dist.mean()),
            "median": float(np.quantile(dist, 0.5)),
            "q95": float(np.quantile(dist, 0.95)),
        }
    if weighting != PER_DEMAND:
        raise ValueError(f"unknown weighting {weighting!r}")
    w = weights
    if w.sum() <= 0:
        w = np.ones_like(w)
    return {
        "mean": float((dist * w).sum() / w.sum()),
        "median": _weighted_quantile(dist, w, 0.5),
        "q95": _weighted_quantile(dist, w, 0.95),
    }
