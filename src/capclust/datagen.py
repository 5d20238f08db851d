"""Synthetic benchmark generator: gamma-copula clusters with structured weights.

Each cluster draws bivariate standard normals with a given correlation,
maps them through the normal CDF and then through inverse gamma CDFs, so
the marginals are gamma with cluster-specific shape and scale.  Cluster
means are relocated onto a random grid cell and the clouds contracted
toward their means to control overlap.  Outliers are sprinkled uniformly
over the bounding box of the true points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .model import NOISE_LABEL, Point


@dataclass(frozen=True)
class GenSpec:
    """Generator configuration.

    ``rho`` fixes the copula correlation for every cluster; None draws one
    per cluster from Unif(-0.7, 0.7).  ``grid_side`` defaults to six times
    the largest marginal standard deviation among the drawn clusters.
    ``edge_weighted`` lists clusters whose weights grow toward the rim
    (None: every other cluster).  ``shrink`` contracts each cloud toward
    its mean; 1 leaves the draw untouched.  No field takes a boolean, and
    the counts and indices (``cluster_sizes``, ``n_outliers``,
    ``edge_weighted``, ``rng_seed``) take integers only.
    """

    cluster_sizes: tuple[int, ...] = (20, 20, 40, 40, 50, 50, 60, 60, 80, 80)
    shape_range: tuple[float, float] = (0.0, 15.0)
    scale_range: tuple[float, float] = (0.0, 100.0)
    rho: float | None = None
    grid_side: float | None = None
    shrink: float = 0.5
    weight_range: tuple[float, float] = (1.0, 100.0)
    n_outliers: int = 20
    edge_weighted: tuple[int, ...] | None = None
    rng_seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            values = value if isinstance(value, (tuple, list)) else [value]
            if any(isinstance(v, bool) for v in values):  # a bool is an int, so it would count as 0 or 1
                raise ValueError(f"{field.name} cannot hold a boolean")
            if (field.name in ("cluster_sizes", "n_outliers", "edge_weighted", "rng_seed") and value is not None
                    and not all(isinstance(v, numbers.Integral) for v in values)):
                raise ValueError(f"{field.name} must hold integers (got {value!r})")
        if not self.cluster_sizes:
            raise ValueError("cluster_sizes must be nonempty")
        if any(s < 1 for s in self.cluster_sizes):
            raise ValueError("cluster sizes must be positive")
        for name in ("shape_range", "scale_range", "weight_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} must have finite ends")
        lo, hi = self.weight_range
        if not 0 <= lo <= hi:
            raise ValueError("weight_range must have a nonnegative low end no greater than its high end")
        for name, (lo, hi) in (("shape_range", self.shape_range), ("scale_range", self.scale_range)):
            if not (lo >= 0 and hi > 0):
                raise ValueError(f"{name} must have a nonnegative low end and a positive high end")
        if self.grid_side is not None and not 0 < self.grid_side < math.inf:
            raise ValueError("grid_side must be finite and positive")
        if not 0 < self.shrink <= 1:
            raise ValueError("shrink must be in (0, 1]")
        if self.rho is not None and not -1 < self.rho < 1:
            raise ValueError("copula correlation must lie in (-1, 1)")
        if self.n_outliers < 0:
            raise ValueError("n_outliers must be nonnegative")
        if self.edge_weighted is not None and any(not 0 <= c < len(self.cluster_sizes) for c in self.edge_weighted):
            raise ValueError(f"edge_weighted indices must lie in 0..{len(self.cluster_sizes) - 1}")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_sizes)

    @classmethod
    def benchmark(cls, rng_seed: int = 0) -> "GenSpec":
        """Unit-scale benchmark configuration.

        Same cluster structure as the default, rescaled so the bundled
        experiment scripts' outlier penalties (0.2 for Euclidean, 0.05 for
        squared Euclidean) separate injected noise from cluster cores.
        """
        return cls(scale_range=(0.0, 0.06), grid_side=3.5, shrink=0.5, rng_seed=rng_seed)


def sample_gamma_copula_cluster(size, shape, scale, rho, rng) -> np.ndarray:
    """Draw ``size`` points whose marginals are gamma, coupled by a normal copula."""
    shape = np.broadcast_to(np.asarray(shape, dtype=float), (2,))
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (2,))
    z1 = rng.standard_normal(size)
    z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(size)
    u = special.ndtr(np.column_stack([z1, z2]))
    # Clamp away from 0/1 so the inverse CDF stays finite.
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    out = np.empty_like(u)
    for c in range(2):
        out[:, c] = scale[c] * special.gammaincinv(shape[c], u[:, c])
    return out


def _draw_clusters(spec: GenSpec, layout_rng, cluster_rngs):
    """The true points: (coordinates, weights, labels), one block per cluster."""
    C = spec.n_clusters
    shapes = layout_rng.uniform(*spec.shape_range, size=(C, 2))
    scales = layout_rng.uniform(*spec.scale_range, size=(C, 2))
    if spec.rho is None:
        rhos = layout_rng.uniform(-0.7, 0.7, size=C)
    else:
        rhos = np.full(C, float(spec.rho))

    if spec.grid_side is None:
        side = 6.0 * float(np.max(np.sqrt(shapes) * scales))
        side = max(side, 1e-9)
    else:
        side = float(spec.grid_side)
    g = int(np.ceil(np.sqrt(C)))
    cells = layout_rng.choice(g * g, size=C, replace=False)
    cell_xy = np.column_stack([(cells % g + 0.5), (cells // g + 0.5)]) * (side / g)

    edge_set = set(spec.edge_weighted) if spec.edge_weighted is not None else set(range(0, C, 2))
    w_lo, w_hi = spec.weight_range

    xs: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for c, size in enumerate(spec.cluster_sizes):
        raw = sample_gamma_copula_cluster(size, shapes[c], scales[c], rhos[c], cluster_rngs[c])
        mean = shapes[c] * scales[c]
        pts = cell_xy[c] + spec.shrink * (raw - mean)
        r = np.sqrt(((pts - cell_xy[c]) ** 2).sum(axis=1))
        if c in edge_set:
            rmax = r.max()
            w = np.full(size, w_lo) if rmax <= 0 else w_lo + (w_hi - w_lo) * (r / rmax)
        else:
            w = cluster_rngs[c].uniform(w_lo, w_hi, size=size)
        xs.append(pts)
        weights.append(w)
        labels.append(np.full(size, c, dtype=int))

    return np.vstack(xs), np.concatenate(weights), np.concatenate(labels)


def generate_dataset(spec: GenSpec):
    """Full labeled dataset: (points, ground-truth labels).

    Labels are 0..C-1 for the true clusters (counts match ``cluster_sizes``
    exactly) and -1 for injected outliers.
    """
    root = np.random.SeedSequence(spec.rng_seed)
    streams = [np.random.default_rng(s) for s in root.spawn(spec.n_clusters + 2)]
    layout_rng, outlier_rng = streams[0], streams[1]
    cluster_rngs = streams[2:]

    # A huge scale_range overflows to non-finite coordinates or weights; checked here.
    with np.errstate(over="ignore", invalid="ignore"):
        xy, w_all, lab = _draw_clusters(spec, layout_rng, cluster_rngs)
        extent = xy.max(axis=0) - xy.min(axis=0)
    if not (np.isfinite(extent).all() and np.isfinite(w_all).all()):
        raise ValueError("scale_range too large: the drawn cluster coordinates or weights are not finite")

    if spec.n_outliers > 0:
        lo = xy.min(axis=0)
        hi = xy.max(axis=0)
        noise = outlier_rng.uniform(lo, hi, size=(spec.n_outliers, 2))
        noise_w = outlier_rng.uniform(*spec.weight_range, size=spec.n_outliers)
        xy = np.vstack([xy, noise])
        w_all = np.concatenate([w_all, noise_w])
        lab = np.concatenate([lab, np.full(spec.n_outliers, NOISE_LABEL, dtype=int)])

    points = [
        Point(id=i, coords=(float(xy[i, 0]), float(xy[i, 1])), w=float(w_all[i]))
        for i in range(len(xy))
    ]
    return points, lab
