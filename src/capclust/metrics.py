"""Distance evaluation for all supported metrics.

Geometric metrics (squared Euclidean, Euclidean, Manhattan) operate on
planar coordinates.  The threshold metric is a 0/1 coverage cost derived
from the Euclidean distance; it and the pure distance-matrix metric only
make sense on candidate sites, which a cost matrix implies and validation
requires of a threshold metric (``Problem.placement``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

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
            if not (isinstance(self.threshold, numbers.Real) and self.threshold > 0):
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
    """All pairwise values of a geometric metric, shape (n_points, n_locations).

    The two coordinate differences are formed separately and worked on in
    place, which avoids (n, m, 2) temporaries and sums the same two terms
    as a reduction over them.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    dx = pts[:, 0, None] - locs[None, :, 0]
    dy = pts[:, 1, None] - locs[None, :, 1]
    if kind == MANHATTAN:
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
    else:
        dx *= dx
        dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx) if kind == EUCLIDEAN else dx


def candidate_distances(metric: MetricSpec, coords: np.ndarray | None, sites: np.ndarray | None) -> np.ndarray:
    """Raw metric distances from every point to every candidate site, shape (n, s).

    A problem computes these once (``Problem.site_costs``); the matrix metric
    returns its cost matrix as is.
    """
    if metric.kind == MATRIX:
        return metric.matrix
    if metric.kind == THRESHOLD:
        d = geometric_distances(EUCLIDEAN, coords, sites)
        return (d >= metric.threshold).astype(float)
    return geometric_distances(metric.kind, coords, sites)


def distances_to_centers(problem: "Problem", centers) -> np.ndarray:
    """Raw metric distances from every point to each current center, shape (n, k), in column-major order.

    Under discrete placement each center's column is gathered, contiguous,
    from the column-major copy of the site costs
    (``Problem.site_cost_columns``).  Otherwise each center's distances are
    computed as one contiguous row, from the column-major coordinates
    (``Problem.coord_columns``), and the result is those rows transposed:
    each pass then runs over the n points, not the k centers.  The values
    are those of ``geometric_distances(kind, coords, centers)``.
    """
    if problem.placement == "discrete":
        return problem.site_cost_columns[:, np.asarray(centers, dtype=int)]
    return geometric_distances(problem.metric.kind, np.asarray(centers, dtype=float), problem.coord_columns).T
