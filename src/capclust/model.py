"""Problem and solution representations plus exact objective evaluation.

The objective of a solution decomposes into four additive parts:

    total = sum_i sum_j w'_i d(x_i, c_j) y_ij      (distance)
          + lambda_o * sum_i w'_i y_i,outlier       (outliers)
          + lambda_k * k                            (opening cost)
          + lambda_f * t                            (released fixed centers)

where w'_i = w_i + gamma_i is the preference-corrected weight and t the
number of released fixed centers.  All types are immutable values after
construction (a problem's ``shared`` dict only gains read-only values it
computes on first use); evaluation is pure.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps

import numpy as np

from . import metrics
from .errors import (
    CapacityWindowInverted,
    FixedCenterNotCandidate,
    KTooSmall,
    NegativeWeight,
    ShapeMismatch,
    ThresholdRequiresDiscrete,
    ValidationError,
)

HARD = "hard"
FRACTIONAL = "fractional"

NOISE_LABEL = -1


@dataclass(frozen=True)
class Point:
    """A weighted demand/data location.

    ``w`` is the demand mass entering the loss, ``gamma`` an extra
    preference weight that attracts centers, ``a`` the mass counted against
    capacity windows (defaults to ``w``), and ``q`` the number of centers
    the point must be assigned to.  Pseudo points encode prior information:
    they attract centers through ``gamma`` but carry no demand or capacity.
    """

    id: int
    coords: tuple[float, float] | None = None
    w: float = 1.0
    gamma: float = 0.0
    a: float | None = None
    q: int = 1
    pseudo: bool = False

    def __post_init__(self):
        if self.a is None:
            object.__setattr__(self, "a", self.w)
        if self.coords is not None:
            object.__setattr__(self, "coords", (float(self.coords[0]), float(self.coords[1])))

    @property
    def effective_weight(self) -> float:
        return self.w + self.gamma


class PointTable(Sequence):
    """The points of a problem as read-only columns, one row per point.

    ``ids`` (object dtype, so ids of any size stay exact Python ints),
    ``coords`` (n, 2), ``w``, ``gamma``, ``a``, ``q`` and ``pseudo`` hold
    the fields of ``Point``, with its defaults; ``located`` marks the rows
    that have coordinates (the others read NaN in ``coords``).  The table is
    a sequence of Points: ``table[i]`` and iteration build them from the
    rows on demand.  Two tables are equal when their columns are.
    """

    _COLUMNS = ("ids", "coords", "located", "w", "gamma", "a", "q", "pseudo")

    def __init__(self, ids, coords, w, gamma=None, a=None, q=None, pseudo=None, located=None):
        n = len(ids)
        self.ids = _frozen(ids, object)
        self.coords = _frozen(coords, float).reshape(n, 2)
        self.located = _frozen(np.ones(n, dtype=bool) if located is None else located, bool)
        self.w = _frozen(w, float)
        self.gamma = _frozen(np.zeros(n) if gamma is None else gamma, float)
        self.a = _frozen(self.w if a is None else a, float)
        self.q = _frozen(np.ones(n, dtype=int) if q is None else q, int)
        self.pseudo = _frozen(np.zeros(n, dtype=bool) if pseudo is None else pseudo, bool)

    @classmethod
    def of(cls, points) -> "PointTable":
        """The table of a sequence of Points."""
        points = tuple(points)
        located = [p.coords is not None for p in points]
        return cls(
            ids=[p.id for p in points],
            coords=[p.coords if has else (math.nan, math.nan) for p, has in zip(points, located)],
            w=[p.w for p in points], gamma=[p.gamma for p in points], a=[p.a for p in points],
            q=[p.q for p in points], pseudo=[p.pseudo for p in points], located=located,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i) -> Point:
        i = operator.index(i)
        return Point(id=self.ids[i], coords=tuple(self.coords[i].tolist()) if self.located[i] else None,
                     w=float(self.w[i]), gamma=float(self.gamma[i]), a=float(self.a[i]), q=int(self.q[i]),
                     pseudo=bool(self.pseudo[i]))

    def __eq__(self, other):
        if not isinstance(other, PointTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name), equal_nan=name == "coords")
                   for name in self._COLUMNS)


@dataclass(frozen=True, eq=False)
class CenterSpec:
    """The k centers: their candidate sites, which make placement discrete (``Problem.placement``), and fixed ones.

    ``fixed`` holds predetermined locations: coordinate pairs in continuous
    placement, candidate-site indices in discrete placement (coordinates are
    matched to sites during validation).  A fixed center may be released and
    relocated at cost ``release_penalty``; infinity means never releasable.
    """

    k: int
    candidates: np.ndarray | None = None
    fixed: tuple = ()
    release_penalty: float = math.inf

    def __post_init__(self):
        if self.candidates is not None:
            object.__setattr__(self, "candidates", np.asarray(self.candidates, dtype=float))
        object.__setattr__(self, "fixed", tuple(self.fixed))

    @property
    def n_fixed(self) -> int:
        return len(self.fixed)


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _shared(compute):
    """A ``cached_property`` whose value is computed once per ``shared`` dict.

    Every problem holding the dict reads the same object, so the value must
    depend only on the points, the metric and the candidate sites.
    """
    name = compute.__name__

    @wraps(compute)
    def read(problem: "Problem"):
        if name not in problem.shared:
            problem.shared[name] = compute(problem)
        return problem.shared[name]

    return cached_property(read)


@dataclass(frozen=True, eq=False)
class Problem:
    """A full clustering / location-allocation instance.

    ``points`` is a ``PointTable``, whose columns are the per-point arrays;
    a sequence of Points given instead becomes one here.  The values that
    depend only on the points, the metric and the candidate sites (the
    effective weights, the id order, the coordinates and the point-to-site
    costs in row- and column-major order, each point's nearest site) are
    computed on first use and kept in ``shared``, a dict that also records
    that the per-point checks passed; it holds nothing else.  A problem
    made by ``dataclasses.replace`` inherits the dict whenever its points,
    metric and candidates are the same objects, so a sweep's problems,
    restarts and consensus document all read the same read-only arrays;
    otherwise it gets a new one.
    """

    points: PointTable
    metric: metrics.MetricSpec
    centers: CenterSpec
    membership: str = HARD
    capacity: tuple[float, float] | None = None
    outlier_penalty: float | None = None
    opening_penalty: float = 0.0
    shared: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.points, PointTable):
            object.__setattr__(self, "points", PointTable.of(self.points))
        made_for = (self.points, self.metric, self.centers.candidates)
        if self.shared is None or not all(map(operator.is_, self.shared["made_for"], made_for)):
            object.__setattr__(self, "shared", {"made_for": made_for})

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def k(self) -> int:
        return self.centers.k

    @property
    def placement(self) -> str:
        """``"discrete"`` (centers on sites) with candidate sites or a cost matrix, else ``"continuous"``."""
        return "discrete" if self.centers.candidates is not None or self.metric.kind == metrics.MATRIX else "continuous"

    @property
    def has_outlier_column(self) -> bool:
        return self.outlier_penalty is not None

    @_shared
    def coords(self) -> np.ndarray | None:
        """(n, 2) point coordinates; None when some point has none."""
        return self.points.coords if self.points.located.all() else None

    @property
    def weights(self) -> np.ndarray:
        return self.points.w

    @property
    def gammas(self) -> np.ndarray:
        return self.points.gamma

    @_shared
    def coord_columns(self) -> np.ndarray | None:
        """``coords`` in column-major (Fortran) order, so that each coordinate is one contiguous column."""
        if self.coords is None:
            return None
        columns = np.asfortranarray(self.coords)
        columns.flags.writeable = False
        return columns

    @_shared
    def effective_weights(self) -> np.ndarray:
        """w' = w + gamma, the weights of the loss."""
        return _frozen(self.weights + self.gammas, float)

    @property
    def capacity_coeffs(self) -> np.ndarray:
        return self.points.a

    @property
    def coverages(self) -> np.ndarray:
        return self.points.q

    @property
    def pseudo_mask(self) -> np.ndarray:
        return self.points.pseudo

    @property
    def ids(self) -> np.ndarray:
        """Point ids; object dtype keeps ids of any size exact."""
        return self.points.ids

    @_shared
    def id_order(self) -> np.ndarray:
        """Permutation sorting points by id; fixes the summation order."""
        return _frozen(np.argsort(self.ids, kind="stable"), int)

    @_shared
    def diameter(self) -> float:
        """Diagonal of the points' bounding box (1 without coordinates), the scale of center moves."""
        if self.coords is None or not self.points:
            return 1.0
        span = self.coords.max(axis=0) - self.coords.min(axis=0)
        return float(max(np.hypot(span[0], span[1]), 1e-300))

    @_shared
    def site_costs(self) -> np.ndarray:
        """Raw distances from every point to every candidate site, shape (n, s); discrete placement only."""
        # A view, so a caller's cost matrix keeps its own flags.
        costs = metrics.candidate_distances(self.metric, self.coords, self.centers.candidates).view()
        costs.flags.writeable = False
        return costs

    @_shared
    def site_cost_columns(self) -> np.ndarray:
        """``site_costs`` in column-major (Fortran) order, for reads of whole columns.

        A center's column of costs to every point is contiguous here, while
        reads of whole rows (a point's costs to every site) keep
        ``site_costs``.
        """
        columns = np.asfortranarray(self.site_costs)
        columns.flags.writeable = False
        return columns

    @_shared
    def nearest_site(self) -> np.ndarray:
        """Each point's cheapest candidate site (lowest index on ties)."""
        return _frozen(np.argmin(self.site_costs, axis=1), int)


@dataclass(frozen=True)
class Assignment:
    """Membership matrix, one row per point.

    When the problem has an outlier penalty the last column is the outlier
    column and rows have k+1 entries; otherwise k entries.  Row sums equal
    each point's coverage q_i; the problem's ``membership``, not repeated
    here, names the regime that made it.  ``labels``, when set, is the
    column of each row's single 1 (the outlier column is k): an assignment
    whose rows are one-hot by construction (every q = 1, and no capacity
    window or hard membership) carries it, so evaluation indexes the
    distances instead of multiplying y and the descent takes its masses
    from it.  Such an assignment may be made with ``y=None`` and its
    ``columns``: its one-hot ``y`` is then built from the labels on first
    read and kept, and ``n_centers``, ``shape`` and ``hard_labels`` never
    build it.  Otherwise ``columns`` is taken from ``y``.
    """

    y: np.ndarray | None
    has_outlier: bool
    diagnostics: dict = field(default_factory=dict)
    labels: np.ndarray | None = None
    columns: int | None = None

    def __post_init__(self):
        if self.y is not None:
            object.__setattr__(self, "columns", self.y.shape[1])
            return
        if self.labels is None or self.columns is None:
            raise ValueError("an assignment without y needs labels and columns")
        del self.__dict__["y"]  # __getattr__ builds it on first read

    def __getattr__(self, name: str):
        if name != "y":
            raise AttributeError(name)
        y = np.zeros(self.shape)
        y[np.arange(len(y)), self.labels] = 1.0
        self.__dict__["y"] = y
        return y

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of ``y``, read without building it."""
        return self.y.shape if "y" in self.__dict__ else (len(self.labels), self.columns)

    @property
    def n_centers(self) -> int:
        return self.columns - (1 if self.has_outlier else 0)

    @property
    def outlier_column(self) -> np.ndarray:
        if not self.has_outlier:
            return np.zeros(self.shape[0])
        return self.y[:, -1]

    @property
    def center_block(self) -> np.ndarray:
        return self.y[:, : self.n_centers]

    def loads(self, capacity_coeffs: np.ndarray) -> np.ndarray:
        return capacity_coeffs @ self.center_block

    def row_sums(self) -> np.ndarray:
        return self.y.sum(axis=1)

    def hard_labels(self) -> np.ndarray:
        """Harden memberships to one label per point; outliers map to -1.

        Ties go to the lowest center index, and a center beats the outlier
        column at equal membership because the outlier column comes last.
        """
        labels = np.argmax(self.y, axis=1) if self.labels is None else self.labels
        if self.has_outlier:
            labels = np.where(labels == self.n_centers, NOISE_LABEL, labels)
        return labels


@dataclass(frozen=True)
class ObjectiveBreakdown:
    distance_term: float
    outlier_term: float
    opening_term: float
    release_term: float

    @property
    def total(self) -> float:
        return self.distance_term + self.outlier_term + self.opening_term + self.release_term


@dataclass(frozen=True)
class Solution:
    """Solver output: center locations, memberships, releases, objective.

    ``centers`` is a (k, 2) coordinate array in continuous placement or a
    length-k array of candidate-site indices in discrete placement.
    ``released`` holds indices of fixed centers moved away from their
    predetermined locations.
    """

    centers: np.ndarray
    assignment: Assignment
    released: frozenset[int]
    objective: ObjectiveBreakdown
    diagnostics: dict = field(default_factory=dict)


def validate_problem(problem: Problem) -> Problem:
    """Check structural invariants and return a normalized copy.

    Placement is ``Problem.placement``: a threshold metric without candidate
    sites is refused, as are penalty terms λ_k·k + λ_f·(fixed centers) that
    overflow (every restart would tie at inf).
    Normalization turns fixed-center coordinates into candidate-site
    indices under discrete placement.  The per-point checks run once per
    ``shared`` dict, which records that they passed: a problem that
    inherits the dict of a validated one skips them.
    """
    spec = problem.centers
    if not _is_integer(spec.k) or spec.k < 1:
        raise ValidationError(f"k must be a positive integer (got {spec.k!r})")
    if spec.candidates is not None:  # before the point checks, which measure the sites too
        if spec.candidates.ndim != 2 or spec.candidates.shape[1] != 2:
            raise ShapeMismatch(f"candidate sites of shape {spec.candidates.shape}, expected (s, 2)")
        if not np.isfinite(spec.candidates).all():
            raise ValidationError("candidate sites must be finite")
    if not problem.n:  # before the point checks, which reduce over the points
        raise ValidationError("a problem needs at least one point")
    if "points_checked" not in problem.shared:
        _validate_points(problem)
        problem.shared["points_checked"] = True

    if problem.membership not in (HARD, FRACTIONAL):
        raise ValidationError(f"unknown membership mode: {problem.membership!r}")

    if problem.capacity is not None:
        window = problem.capacity
        if not isinstance(window, Sequence | np.ndarray) or len(window) != 2 or not all(
                isinstance(limit, numbers.Real) for limit in window):
            raise ValidationError(f"capacity window {window!r} must be two numbers (L, U)")
        lo, hi = window
        if not math.isfinite(lo) or math.isnan(hi):
            raise ValidationError(f"capacity window [{lo}, {hi}]: L must be finite and U a number")
        if lo > hi:
            raise CapacityWindowInverted(f"capacity window [{lo}, {hi}] is inverted")
        if lo < 0:
            raise ValidationError("capacity lower limit must be nonnegative")

    if problem.outlier_penalty is not None and not _finite_nonnegative(problem.outlier_penalty):
        raise ValidationError("outlier penalty must be finite and nonnegative")
    if not _finite_nonnegative(problem.opening_penalty):
        raise ValidationError("opening penalty must be finite and nonnegative")

    discrete = problem.placement == "discrete"
    if problem.metric.kind == metrics.THRESHOLD and not discrete:
        raise ThresholdRequiresDiscrete("threshold metric requires candidate sites")

    if discrete:
        if problem.metric.kind == metrics.MATRIX:
            rows, n_sites = problem.metric.matrix.shape
            if rows != problem.n:
                raise ShapeMismatch(f"cost matrix has {rows} rows for {problem.n} points")
            if spec.candidates is not None and spec.candidates.shape != (n_sites, 2):
                raise ShapeMismatch(
                    f"candidate coordinates of shape {spec.candidates.shape} for a cost matrix with {n_sites} columns"
                )
        else:
            n_sites = spec.candidates.shape[0]
        if n_sites < spec.k:
            raise ValidationError(f"{n_sites} candidate sites cannot host k={spec.k} centers")
    elif spec.k - spec.n_fixed > problem.n:
        raise ValidationError(f"{problem.n} points cannot seed the {spec.k - spec.n_fixed} free centers of k={spec.k}")

    if problem.coords is None and problem.metric.kind != metrics.MATRIX:
        raise ValidationError("geometric metrics require point coordinates")

    if spec.n_fixed > spec.k:
        raise KTooSmall(f"k={spec.k} is smaller than the number of fixed centers ({spec.n_fixed})")
    if not (isinstance(spec.release_penalty, numbers.Real) and spec.release_penalty >= 0):  # inf: never releasable
        raise ValidationError("release penalty must be nonnegative")
    release_term = float(spec.release_penalty) * spec.n_fixed if math.isfinite(spec.release_penalty) else 0.0
    if not math.isfinite(float(problem.opening_penalty) * float(spec.k) + release_term):
        raise ValidationError(f"opening penalty times k={spec.k} plus release penalty times fixed centers overflows")

    fixed = spec.fixed
    if discrete and fixed:
        resolved = []
        for f in fixed:
            if np.isscalar(f):
                h = _site_index(f)
                if not 0 <= h < n_sites:
                    raise FixedCenterNotCandidate(f"fixed site index {h} outside 0..{n_sites - 1}")
            else:
                if spec.candidates is None:
                    raise FixedCenterNotCandidate("fixed coordinates need candidate coordinates to match")
                d = np.abs(spec.candidates - _finite_pair(f)).sum(axis=1)
                h = int(np.argmin(d))
                if d[h] > 1e-9:
                    raise FixedCenterNotCandidate(f"fixed location {f} is not a candidate site")
            resolved.append(h)
        if len(set(resolved)) != len(resolved):
            raise ValidationError("fixed centers must occupy distinct candidate sites")
        normalized = tuple(resolved)
    elif fixed:
        normalized = tuple(tuple(map(float, _finite_pair(f))) for f in fixed)
    else:
        return problem

    # Keep the same object when nothing changes, so its cached arrays survive.
    if _same_values(fixed, normalized):
        return problem
    return replace(problem, centers=replace(spec, fixed=normalized))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)  # a bool would count as 0 or 1


def _finite_nonnegative(penalty) -> bool:
    return isinstance(penalty, numbers.Real) and 0 <= penalty < math.inf


def _site_index(site) -> int:
    """A fixed site given as one value: its index, which must be a whole number."""
    try:
        value = float(site)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not value.is_integer():
        raise FixedCenterNotCandidate(f"fixed site {site!r} is not a site index")
    return int(value)


def _finite_pair(location) -> np.ndarray:
    """A fixed center's coordinates as a float array; anything but two finite numbers raises ValidationError."""
    try:
        pair = np.asarray(location, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pair = None
    if pair is None or pair.shape != (2,) or not np.isfinite(pair).all():
        raise ValidationError(f"fixed center {location!r} must be a pair of finite numbers")
    return pair


def _validate_points(problem: Problem) -> None:
    """Per-point checks on the shared arrays; errors name the first offending point."""
    w, gamma, a, q = problem.weights, problem.gammas, problem.capacity_coeffs, problem.coverages
    finite = np.isfinite(w) & np.isfinite(gamma) & np.isfinite(a)
    if problem.coords is not None:
        finite &= np.isfinite(problem.coords).all(axis=1)
    negative = (w < 0) | (gamma < 0) | (a < 0)
    no_cover = q < 1
    bad_pseudo = problem.pseudo_mask & ((w != 0) | (a != 0))
    bad = ~finite | negative | no_cover | bad_pseudo
    if bad.any():
        i = int(np.argmax(bad))
        pid = problem.ids[i]
        if not finite[i]:
            raise ValidationError(f"point {pid}: coordinates, w, gamma and a must be finite")
        if negative[i]:
            raise NegativeWeight(f"point {pid}: w, gamma and a must be nonnegative")
        if no_cover[i]:
            raise ValidationError(f"point {pid}: coverage q must be at least 1")
        raise ValidationError(f"pseudo point {pid} must have w = 0 and a = 0")
    ids = problem.ids[problem.id_order]
    repeated = np.flatnonzero(ids[1:] == ids[:-1])
    if repeated.size:
        raise ValidationError(f"point ids must be unique (id {ids[repeated[0]]} repeats)")
    # k-means++ draws with masses w'_i * D_i^2, which must sum to a finite number.
    s, span = _largest_distance(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        square = np.float64(max(1.0, s)) ** 2
        total = np.sum(problem.effective_weights) * square
    if not np.isfinite(total):
        culprit = "weights too large for the distances" if np.isfinite(square) else f"distances too large {span}"
        raise ValidationError(f"{culprit}: sum of w' * max(1, d)^2 is not finite for the largest distance d = {s:g}")


def _largest_distance(problem: Problem) -> tuple[float, str]:
    """The largest distance the metric can give between two points, or a point and a candidate site, and where.

    For a geometric metric this is its value across the diagonal of the
    bounding box of the points and sites, which bounds every such distance;
    inf when it overflows.  "Where" names the matrix or the box's corners.
    """
    metric = problem.metric
    if metric.kind == metrics.MATRIX:
        return float(metric.matrix.max(initial=0.0)), "in the cost matrix"
    if metric.kind == metrics.THRESHOLD or problem.coords is None:  # a 0/1 cost, or no coordinates (refused later)
        return 1.0, ""
    box = problem.coords
    if problem.centers.candidates is not None:
        box = np.vstack([box, problem.centers.candidates])
    lo, hi = box.min(axis=0), box.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        d = float(metrics.geometric_distances(metric.kind, lo, hi)[0, 0])
    return d, f"across coordinates spanning {lo.tolist()} to {hi.tolist()}"


def _same_values(given: tuple, normalized: tuple) -> bool:
    """Whether ``given`` already holds exactly the plain Python values of ``normalized``."""
    def same(a, b) -> bool:
        if isinstance(b, tuple):
            return type(a) is tuple and len(a) == len(b) and all(map(same, a, b))
        return type(a) is type(b) and a == b

    return all(map(same, given, normalized))


def _ordered_sum(problem: Problem, per_point: np.ndarray) -> float:
    # Pairwise summation over points sorted by id, for run-to-run determinism.
    return float(np.sum(per_point[problem.id_order]))


def point_costs(problem: Problem, assignment: Assignment, distances: np.ndarray) -> np.ndarray:
    """Each point's distance cost sum_j w'_i d(x_i, c_j) y_ij, from the raw (n, k) distances.

    A one-hot row sums to its single entry exactly, so with ``labels`` one
    gather gives the same bits as the dense product; an outlier costs 0 here.
    """
    w = problem.effective_weights
    labels = assignment.labels
    if labels is None:
        return (w[:, None] * distances * assignment.center_block).sum(axis=1)
    rows = np.arange(len(labels))
    if not assignment.has_outlier:
        return w * distances[rows, labels]
    real = labels < assignment.n_centers
    return np.where(real, w * distances[rows, np.minimum(labels, assignment.n_centers - 1)], 0.0)


def evaluate_parts(
    problem: Problem, centers, assignment: Assignment, released, *, distances=None
) -> ObjectiveBreakdown:
    """Evaluate the decomposed objective for an explicit iterate.

    ``distances`` is the (n, k) matrix of raw distances to ``centers`` when
    the caller already holds it; otherwise it is computed here.
    """
    k = problem.k
    expected_cols = k + (1 if problem.has_outlier_column else 0)
    if assignment.shape != (problem.n, expected_cols):
        raise ShapeMismatch(
            f"assignment shape {assignment.shape} does not match (n={problem.n}, columns={expected_cols})"
        )
    if len(centers) != k:
        raise ShapeMismatch(f"{len(centers)} centers for k={k}")
    if any(j >= problem.centers.n_fixed for j in released):
        raise ShapeMismatch("released set contains a non-fixed center index")

    if distances is None:
        distances = metrics.distances_to_centers(problem, centers)
    distance_term = _ordered_sum(problem, point_costs(problem, assignment, distances))

    if problem.has_outlier_column:
        w = problem.effective_weights
        if assignment.labels is None:
            outlier_mass = w * assignment.outlier_column
        else:
            outlier_mass = np.where(assignment.labels == k, w, 0.0)
        outlier_term = problem.outlier_penalty * _ordered_sum(problem, outlier_mass)
    else:
        outlier_term = 0.0

    opening_term = problem.opening_penalty * k
    t = len(released)
    release_term = problem.centers.release_penalty * t if t else 0.0
    return ObjectiveBreakdown(distance_term, outlier_term, opening_term, release_term)


def evaluate_objective(problem: Problem, solution: Solution) -> ObjectiveBreakdown:
    """Exact evaluation of the decomposed objective for a solution."""
    return evaluate_parts(problem, solution.centers, solution.assignment, solution.released)
