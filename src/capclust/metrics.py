"""Distance evaluation for all supported metrics.

Geometric metrics (squared Euclidean, Euclidean, Manhattan) operate on
planar coordinates.  The threshold metric is a 0/1 coverage cost derived
from the Euclidean distance; it and the pure distance-matrix metric only
make sense with discrete center placement, which validation enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MatrixIndexOutOfRange, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .model import Problem

SQEUCLIDEAN = "sqeuclidean"
EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"
THRESHOLD = "threshold"
MATRIX = "matrix"

GEOMETRIC_KINDS = (SQEUCLIDEAN, EUCLIDEAN, MANHATTAN)


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Metric selector.

    ``threshold`` is the coverage radius for the threshold metric.
    ``matrix`` is an (n, s) array of precomputed point-to-site costs.
    """

    kind: str
    threshold: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (*GEOMETRIC_KINDS, THRESHOLD, MATRIX):
            raise ValidationError(f"unknown metric kind: {self.kind!r}")
        if self.kind == THRESHOLD:
            if self.threshold is None or not self.threshold > 0:
                raise ValidationError("threshold metric needs a positive radius")
        if self.kind == MATRIX:
            if self.matrix is None:
                raise ValidationError("matrix metric needs a cost matrix")
            D = np.asarray(self.matrix, dtype=float)
            if D.ndim != 2:
                raise ValidationError("cost matrix must be two-dimensional")
            if not np.all(np.isfinite(D)) or np.any(D < 0):
                raise ValidationError("cost matrix entries must be finite and nonnegative")
            object.__setattr__(self, "matrix", D)

    @property
    def is_geometric(self) -> bool:
        return self.kind in GEOMETRIC_KINDS


def sqeuclidean() -> MetricSpec:
    return MetricSpec(SQEUCLIDEAN)


def euclidean() -> MetricSpec:
    return MetricSpec(EUCLIDEAN)


def manhattan() -> MetricSpec:
    return MetricSpec(MANHATTAN)


def threshold(radius: float) -> MetricSpec:
    return MetricSpec(THRESHOLD, threshold=radius)


def matrix_metric(D) -> MetricSpec:
    return MetricSpec(MATRIX, matrix=np.asarray(D, dtype=float))


def geometric_distances(kind: str, points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """All pairwise values of a geometric metric, shape (n_points, n_locations)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    diff = pts[:, None, :] - locs[None, :, :]
    if kind == MANHATTAN:
        return np.abs(diff).sum(axis=2)
    sq = (diff * diff).sum(axis=2)
    if kind == SQEUCLIDEAN:
        return sq
    return np.sqrt(sq)


def distance(metric: MetricSpec, point, location) -> float:
    """Metric value between one point and one location.

    For geometric metrics and the threshold metric, ``point`` and
    ``location`` are coordinate pairs.  For the matrix metric, ``point`` is
    the point's row index and ``location`` a candidate-site column index.
    """
    if metric.kind == MATRIX:
        D = metric.matrix
        i, h = int(point), int(location)
        if not (0 <= i < D.shape[0] and 0 <= h < D.shape[1]):
            raise MatrixIndexOutOfRange(f"matrix index ({i}, {h}) outside {D.shape}")
        return float(D[i, h])
    p = np.asarray(point, dtype=float)
    c = np.asarray(location, dtype=float)
    if metric.kind == THRESHOLD:
        d = float(np.sqrt(((p - c) ** 2).sum()))
        return 0.0 if d < metric.threshold else 1.0
    return float(geometric_distances(metric.kind, p[None, :], c[None, :])[0, 0])


def candidate_distances(problem: "Problem") -> np.ndarray:
    """Raw metric distances from every point to every candidate site, shape (n, s)."""
    metric = problem.metric
    if metric.kind == MATRIX:
        return metric.matrix
    sites = problem.centers.candidates
    if metric.kind == THRESHOLD:
        d = geometric_distances(EUCLIDEAN, problem.coords, sites)
        return (d >= metric.threshold).astype(float)
    return geometric_distances(metric.kind, problem.coords, sites)


def distances_to_centers(problem: "Problem", centers) -> np.ndarray:
    """Raw metric distances from every point to each current center, shape (n, k)."""
    if problem.centers.placement == "discrete":
        sites = np.asarray(centers, dtype=int)
        metric = problem.metric
        if metric.kind == MATRIX:
            return metric.matrix[:, sites]
        site_xy = problem.centers.candidates[sites]
        if metric.kind == THRESHOLD:
            d = geometric_distances(EUCLIDEAN, problem.coords, site_xy)
            return (d >= metric.threshold).astype(float)
        return geometric_distances(metric.kind, problem.coords, site_xy)
    return geometric_distances(problem.metric.kind, problem.coords, np.asarray(centers, dtype=float))


def pairwise_costs(problem: "Problem", centers) -> np.ndarray:
    """Effective-weight-scaled costs w'_i * d(x_i, c_j), shape (n, k)."""
    return problem.effective_weights[:, None] * distances_to_centers(problem, centers)
