"""Block coordinate descent with k-means++ multi-restart.

Each restart seeds centers (fixed centers first, the rest by weighted
k-means++), then alternates the exact allocation step with the location
step (including release decisions for fixed centers) until the objective
stalls or the centers stop moving.  A solve seeds its restarts in
lockstep groups, one draw of every restart of a group per round, from
groups it builds or a sweep hands it, and a discrete descent whose first
allocation is the nearest assignment is handed that assignment and its
site totals by the group that seeded it.
Restarts draw from counter-spawned RNG streams so the set of restarts is
independent of execution order, and the best restart by total objective
wins (totals within 1e-12 relative of the lowest tie, and ties go to the
lowest restart index).  Continuous restarts without a capacity window run
in lockstep groups, whose clusters share one location call, and its
pricing, per round.
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import metrics
from .allocation import _allocates_nearest_labels, _nearest_assignment, allocate, lp_model
from .errors import (
    AllRestartsInfeasible, Infeasible, NoIncumbentWithinBudget, NotEnoughDistinctSites, ShapeMismatch, ValidationError,
)
from .location import (
    CenterUpdate, _keep, add_mass_change, cluster_costs_continuous, decide_release, update_center_discrete,
    update_centers_continuous,
)
from .model import Assignment, Problem, Solution, _is_integer, evaluate_parts, point_costs, validate_problem


# The most restarts a solve runs: each holds a generator and a draw
# sequence from the start, and a solve reports nothing until all end.
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the multi-restart descent.

    ``restarts`` of 50-100 give publication-grade robustness; the default
    favors interactive runs, and more than ``MAX_RESTARTS`` (10,000) are
    refused.  The counts and ``rng_seed`` take integers, not booleans.
    ``time_budget`` is seconds per hard allocation call, not for the whole
    solve.
    """

    restarts: int = 10
    rng_seed: int = 0
    max_iterations: int = 200
    convergence_tol: float = 1e-9
    time_budget: float | None = None

    def __post_init__(self):
        for name in ("restarts", "rng_seed", "max_iterations"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must be between 1 and {MAX_RESTARTS}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.time_budget is not None and not (isinstance(self.time_budget, numbers.Real) and self.time_budget >= 0):
            raise ValueError("time_budget must be a nonnegative number")  # inf means no limit
        if not isinstance(self.convergence_tol, numbers.Real) or math.isnan(self.convergence_tol):
            raise ValueError("convergence_tol must be a number")  # -inf turns the stall test off


# Restart totals within this relative distance of the lowest tie, and the
# lowest restart index among them wins: they differ by rounding only.
RESTART_TIE_RTOL = 1e-12

# The most distance-matrix cells, restarts x n x k, of one group of
# continuous descents without a capacity window run in lockstep.  Each
# descent in a group adds about two (n, k) float arrays to the peak memory,
# and one (n, m) array of distances to its m fixed locations.
# A lockstep group of k-means++ draw sequences holds at most restarts x n
# of these cells in each of its (R, n) seeding arrays.
_LOCKSTEP_CELLS = 1_000_000
# The most bytes the relocation memo of one ``descend`` call holds (``_Relocations``):
# as many as the distance matrices of a full lockstep group.
_MEMO_BYTES = 8 * _LOCKSTEP_CELLS

def _draws(rngs: list, masses: np.ndarray, eligible: np.ndarray | None) -> np.ndarray:
    """One point per row of the (R, n) ``masses``, drawn in proportion to its mass among the eligible ones.

    Row r draws from ``rngs[r]``.  Without positive mass a row's draw is
    uniform over its eligible points; a row without one gives -1 and makes
    no draw.  ``eligible`` None makes every point eligible.  ``masses`` is
    overwritten.
    """
    if eligible is not None:
        masses = np.where(eligible, masses, 0.0)
    total = masses.sum(axis=1)
    picks = np.full(len(rngs), -1)
    flat = total <= 0
    if flat.any():
        masses[flat] = 1.0 if eligible is None else eligible[flat]
        total[flat] = masses[flat].sum(axis=1)
    rows = np.flatnonzero(total > 0)
    if rows.size < len(rngs):
        masses, total = masses[rows], total[rows]
    # Row by row, the inverse CDF of ``rng.choice(n, p=masses / total)``, the
    # same draw and generator state, without its checks of p.
    cdf = np.divide(masses, total[:, None], out=masses)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:].copy()  # a copy: dividing by a view of cdf itself copies all of cdf
    for r, row in zip(rows.tolist(), cdf):
        picks[r] = row.searchsorted(rngs[r].random(), side="right")
    return picks


class _SeedBatch:
    """The k-means++ draw sequences of one lockstep group of restarts, one row per restart, drawn on together.

    Row r draws from its own generator ``rngs[r]``.  ``chosen`` holds each
    row's fixed centers, then its drawn seeds in order: (R, c) site indices
    or (R, c, 2) coordinates, and every row always holds the same number c
    of seeds.  ``best`` (R, n) holds each point's distance to its row's
    nearest seed so far, and ``taken`` (R, s), under discrete placement,
    the sites each row holds.  Each seed is drawn from a distribution that
    depends only on the seeds before it, so the seeds for k are the first k
    seeds for any larger k (``first``): a sweep draws each restart's
    sequence once, up to its largest k.  A row's draws do not depend on the
    other rows of its group, so grouping never changes them.  The fixed
    seeds, the same for every row, are priced once for the whole group.
    Every seed distance comes from ``metrics.distances_to_centers``.

    With ``track`` (a group whose descents start from the nearest
    assignment) a discrete group also keeps ``labels`` (R, n), the index in
    ``chosen`` of each point's nearest seed in its row (a later seed takes
    a point only when it is strictly closer, so ties stay with the lowest
    index, as in ``np.argmin``), and ``totals`` (R, k, s), each row's site
    totals of that assignment, T[j, h] = sum over labels_i = j of
    w'_i S[i, h]: the first seeds (the fixed ones, or else the first draw),
    which every row shares, start them with one product for the group, and
    each later draw adds the rows of S of only the points with w' > 0 that
    switched to it (``add_mass_change``).  ``starts`` hands them to the
    descents: against a copy that hands none, ``matrix-sweep`` ran at a
    per-pair time ratio of 0.768 (faster in 20 of 20 pairs).  A continuous
    group keeps none: the allocation they would spare a descent costs about
    what keeping them does (``euclid-outlier`` ran at a per-pair time ratio
    of 0.998 without them).
    """

    def __init__(self, problem: Problem, rngs: list, track: bool = False):
        spec = problem.centers
        self.problem, self.rngs = problem, rngs
        self.discrete = problem.placement == "discrete"
        self.track = track and self.discrete
        self.best = None
        rows, m = len(rngs), spec.n_fixed
        if self.discrete:
            fixed = np.array(spec.fixed, dtype=np.intp)
            self.taken = np.zeros((rows, problem.site_costs.shape[1]), dtype=bool)
            self.taken[:, fixed] = True
            if self.track:
                self.totals = np.zeros((rows, m, problem.site_costs.shape[1]))
        else:
            fixed = np.array(spec.fixed, dtype=float).reshape(m, 2)
        self.chosen = np.repeat(fixed[None], rows, axis=0)
        if m:
            # The fixed seeds' distances, one row per seed: a minimum over rows is one pass.
            D = metrics.distances_to_centers(problem, fixed).T
            self.best = np.broadcast_to(np.min(D, axis=0), (rows, problem.n))
            if self.track:
                self._track_from(np.argmin(D, axis=0))

    def first(self, k: int) -> np.ndarray:
        """Each row's first k seeds, (R, k) or (R, k, 2), drawing the group on to k when it holds fewer."""
        self.advance(k)
        return self.chosen[:, :k]

    def starts(self, k: int) -> list:
        """Each row's start: copies of its labels and site totals, and its ``best``; None unless tracked at k seeds.

        A seed without a point of w' > 0 gets a row of exactly 0: points
        switch only to the newest seed, so its row lost them for good.
        """
        c, w = self.chosen.shape[1], self.problem.effective_weights
        if not self.track or c != k:
            return [None] * len(self.rngs)
        starts = []
        for labels, best, totals in zip(self.labels, self.best, self.totals[:, :c]):
            totals = totals.copy()
            totals[np.bincount(labels[w > 0], minlength=c) == 0] = 0.0
            starts.append((labels.copy(), best, totals))
        return starts

    def advance(self, k: int) -> None:
        """Draw every row on to k seeds, one seed of every row per round.

        A round makes one (R, n) pass for the masses w'_i * D(x_i)^2 (plain
        w' before a first seed) and one more for their inverse CDFs
        (``_draws``); each row draws from its own generator, and one
        ``metrics.distances_to_centers`` call prices the R new seeds.
        So each row gets the seeds, generator state, nearest-seed distances
        and labels it would get alone.  Under discrete placement a draw
        snaps to its point's nearest site, a point whose site is taken is
        not eligible, and a row without an eligible point takes the lowest
        unused site without a draw.  Every row holds as many distinct sites
        as seeds, so all of them run out of sites together, which raises
        ``NotEnoughDistinctSites``.
        """
        problem, rows, w = self.problem, np.arange(len(self.rngs)), self.problem.effective_weights
        if self.track and self.totals.shape[1] < k:  # room for k seeds' totals; the new rows start at zero
            grow = np.zeros((len(rows), k - self.totals.shape[1], self.totals.shape[2]))
            self.totals = np.concatenate([self.totals, grow], axis=1)
        while self.chosen.shape[1] < k:
            c = self.chosen.shape[1]  # the new seed's index
            masses = np.tile(w, (len(rows), 1)) if self.best is None else w * self.best**2
            if self.discrete:
                if self.taken[0].all():
                    raise NotEnoughDistinctSites(f"cannot place {c + 1} centers on {self.taken.shape[1]} sites")
                picks = _draws(self.rngs, masses, ~self.taken[:, problem.nearest_site])
                new = problem.nearest_site[picks]
                lowest = picks < 0  # no eligible point: the lowest unused site
                new[lowest] = np.argmin(self.taken[lowest], axis=1)
                self.taken[rows, new] = True
            else:
                new = problem.coords[_draws(self.rngs, masses, None)]
            d = metrics.distances_to_centers(problem, new).T
            self.chosen = np.concatenate([self.chosen, new[:, None]], axis=1)
            if self.best is None:  # the first seed takes every point
                self.best = d
                if self.track:
                    self._track_from(np.zeros(problem.n, dtype=np.intp))
                continue
            switched = d < self.best
            self.best = np.minimum(self.best, d)
            if self.track:  # the totals take in the switched points while the labels still hold their old seeds
                for r, moved in enumerate(switched):
                    moved = np.flatnonzero(moved)
                    points, change = _mass_changes(np.full(moved.size, c), self.labels[r, moved], w[moved], c + 1)
                    add_mass_change(self.totals[r, :c + 1], problem.site_costs, change, moved[points])
                self.labels = np.where(switched, c, self.labels)

    def _track_from(self, labels: np.ndarray) -> None:
        """Give every row the labels ``labels`` of its seeds so far, and their site totals from one product."""
        c, S, w = self.chosen.shape[1], self.problem.site_costs, self.problem.effective_weights
        totals = np.zeros((c, S.shape[1]))
        points, change = _mass_changes(labels, None, w, c)
        add_mass_change(totals, S, change, points)
        self.totals[:, :c] = totals
        self.labels = np.broadcast_to(labels, (len(self.rngs), len(labels)))


def kmeanspp_init(problem: Problem, rng: np.random.Generator):
    """Seed k centers: fixed ones first, the rest by w'-weighted k-means++.

    Free seeds are drawn from the data with probability proportional to
    w'_i * D(x_i)^2 where D is the configured metric's distance to the
    nearest center chosen so far (plain w' for the very first draw).  In
    discrete placement each draw snaps to its nearest candidate site, and a
    point whose site is occupied is not drawn.  ``rng`` is left where the
    last draw left it.  This is a lockstep group of one restart
    (``_SeedBatch``), drawn by the path by which ``solve`` draws all of its
    restarts' sequences.
    """
    return _SeedBatch(problem, [rng]).first(problem.k)[0]


def _reseed(problem: Problem, contrib: np.ndarray, centers: np.ndarray, emptied: list[int]) -> None:
    """Move each emptied center to the costliest point (by ``contrib``) that no earlier one took.

    Under discrete placement a center takes only a site no other center
    holds: the site of the costliest point whose site is free, else the
    lowest free site.
    """
    discrete = problem.placement == "discrete"
    # Under continuous placement every point is its own spot.
    snap = problem.nearest_site if discrete else np.arange(problem.n)
    held = np.zeros(problem.site_costs.shape[1] if discrete else problem.n, dtype=bool)
    if discrete:
        held[np.delete(centers, emptied)] = True
    for j in emptied:
        eligible = ~held[snap]
        if eligible.any():
            spot = int(snap[np.argmax(np.where(eligible, contrib, -np.inf))])
        else:  # the lowest free site; more emptied centers than points reuse the costliest one
            spot = int(np.flatnonzero(~held)[0]) if discrete else int(np.argmax(contrib))
        held[spot] = True
        centers[j] = spot if discrete else problem.coords[spot]


def _mass_changes(current: np.ndarray, seen, w: np.ndarray, k: int):
    """The points whose masses differ between the inputs ``seen`` and ``current``, and the (k, p) change.

    The inputs are those of ``_changed_clusters``.  The change is new minus
    old, one column per point.  With labels the points are those with
    w' > 0 that switched column; with dense masses, those whose mass column
    differs.  Every point counts when ``seen`` is None.
    """
    first = seen is None
    if current.ndim == 2:
        if first:
            return np.arange(len(w)), current
        points = np.flatnonzero((current != seen).any(axis=0))
        return points, current[:, points] - seen[:, points]
    points = np.arange(len(w)) if first else np.flatnonzero((w > 0) & (current != seen))
    change = np.zeros((k + 1, points.size))  # the last row is the outlier column
    cols = np.arange(points.size)
    change[current[points], cols] = w[points]
    if not first:
        change[seen[points], cols] = -w[points]
    return points, change[:k]


def _changed_clusters(assignment: Assignment, w: np.ndarray, last):
    """Which clusters' masses changed since the last iteration, which hold mass, and this iteration's input.

    The input is the assignment's ``labels`` when it carries them, else the
    dense (k, n) masses y_ij w'_i.  Against ``last``, the input of the last
    iteration, a cluster changed when a point with w' > 0 left or joined it
    (labels) or when its row of masses differs (dense masses); in the first
    iteration (``last`` None) every cluster changed.
    """
    k = assignment.n_centers
    current = assignment.labels
    if current is None:
        current = np.empty((k, len(w)))
        np.multiply(assignment.center_block.T, w, out=current)
        filled = (current > 0).any(axis=1)
    else:
        filled = np.bincount(current[w > 0], minlength=k + 1)[:k] > 0
    if last is None:
        return np.ones(k, dtype=bool), filled, current
    if current.ndim == 2:
        return (current != last).any(axis=1), filled, current
    points = np.flatnonzero((w > 0) & (current != last))
    changed = np.zeros(k + 1, dtype=bool)  # the last entry is the outlier column
    changed[current[points]] = True
    changed[last[points]] = True
    return changed[:k], filled, current


def _members(current: np.ndarray, w: np.ndarray, clusters: np.ndarray, k: int):
    """The points with positive mass of ``clusters``, cluster after cluster: each one's cluster row, index and mass.

    ``current`` is an input of ``_changed_clusters``.  Labels give the
    members from one stable sort of the clusters' points with w' > 0, dense
    masses from the clusters' rows; both list a cluster's points by index.
    """
    if current.ndim == 2:
        masses = current[clusters]
        rows, points = np.nonzero(masses > 0)
        return rows, points, masses[rows, points]
    row = np.full(k + 1, -1)
    row[clusters] = np.arange(len(clusters))
    points = np.flatnonzero(w > 0)
    member = row[current[points]]
    points, member = points[member >= 0], member[member >= 0]
    order = np.argsort(member, kind="stable")
    points = points[order]
    return member[order], points, w[points]


def _checked_centers(problem: Problem, initial_centers) -> tuple[np.ndarray, bool]:
    """A new array of ``initial_centers``, and whether it stacks one center set per restart.

    A center set is k sites in [0, n_sites) or k finite coordinate pairs; a
    stack of them has one more leading axis and at least one set.
    """
    discrete = problem.placement == "discrete"
    try:
        centers = np.array(initial_centers, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("initial centers must be numbers") from None
    shape = (problem.k,) if discrete else (problem.k, 2)
    stacked = centers.ndim == len(shape) + 1
    if centers.shape[stacked:] != shape or not centers.size:
        raise ShapeMismatch(f"initial centers of shape {centers.shape}, expected {shape} or one such set per restart")
    if not np.isfinite(centers).all():
        raise ValidationError("initial centers must be finite")
    if not discrete:
        return centers, stacked
    n_sites = problem.site_costs.shape[1]
    if ((centers != np.floor(centers)) | (centers < 0) | (centers >= n_sites)).any():
        raise ValidationError(f"initial centers must be site indices in 0..{n_sites - 1}")
    return centers.astype(int), stacked


def descend(problem: Problem, initial_centers, config: SolverConfig, *, start=None) -> Solution:
    """Alternate exact allocation and location steps from the given centers.

    The (n, k) distance matrix is computed once, for the initial centers,
    and after each location step only the columns of the centers that moved
    are computed again (against the whole matrix, a per-pair time ratio of
    0.924 on ``euclid-outlier``); it is shared by the allocation, the
    objective evaluations, reseeding and the monotone guard.  A capacitated
    problem gets one allocation model (``lp_model(problem)``), which all
    its descents share.  Each descent restarts the model (``restart``), so
    its first LP starts from the nearest-assignment basis as on a new
    model; it then re-solves its LP warm for each new set of centers and,
    under a time budget, falls back to the assignment it returned last in
    this descent, so the objective never rises.

    Every center moves by one rule, and all moving clusters move in one
    batched step.  Under discrete placement the descent keeps one (k, s)
    array of every cluster's weighted distance sum to every site, from which
    the moving clusters take their sites and a fixed center's release gain
    reads its row.  ``update_center_discrete`` adds to it the rows of S of
    only the points whose mass changed since it last did, so the sums agree
    with a fresh product to rounding only.  They start from zero, and the
    first step takes in every point, unless the descent is handed a start.
    ``solve`` hands one (``start``, private), kept by the lockstep group
    of draw sequences that seeded the descent (``_SeedBatch.starts``), to
    every discrete descent of a problem whose first allocation is the
    nearest assignment: each
    point's nearest initial center (ties to the lowest index), its
    distance to it and the site totals of that assignment.  The
    descent then makes no first ``allocate`` call, and its first step takes
    in only the points sent to the outlier column.  Under continuous
    placement the moving clusters' points with positive mass go, cluster
    after cluster, to one ``update_centers_continuous`` call, and one
    ``cluster_costs_continuous`` call prices every update, both for all the
    descents of a lockstep group.  A continuous optimum that costs more
    than the current location (read from the distance matrix) is dropped
    for it (the monotone guard).  A fixed center is then released when the
    gain of that location over its fixed one passes ``decide_release``, one
    center at a time, and put back at its fixed location otherwise.  Its
    cost at its fixed location comes from the descent's (n, m) distances to
    the m fixed locations, computed once when the release penalty is
    finite, as its cost where it stands comes
    from the distance matrix; a discrete descent reads both from its site
    totals.  Every distance comes from ``metrics.distances_to_centers``.
    A fixed center that cannot be released
    (infinite penalty or empty cluster) stays fixed without an update.
    Several descents run in lockstep (below) give those clusters to one
    ``update_centers_continuous`` call together; a cluster's result does not
    depend on its batch, so each descent ends as it would alone.  For the
    same reason, when several restarts run, a Euclidean cluster, whose
    location is the Newton loop of the geometric median, is relocated and
    priced once: a cluster with the point indices and masses of one sent
    before takes its stored update and cost (``_finished``; 16 bytes per
    relocated point, and at most ``_MEMO_BYTES``, 8 MB, before the memo
    starts over).  At seed 1 of the benchmark's euclid-outlier workload
    that relocates 5,945 of the 8,491 clusters the descents send, in 272
    location calls instead of 290.

    Each iteration sorts the clusters with masks.  A cluster is skipped,
    and keeps its center, when it holds mass and its masses are those of
    the last iteration: the location step is deterministic and the guard
    only ever keeps the previous center, so recomputing would return the
    center it already holds.  That holds for a fixed center whose release
    just flipped too: weighed again, a released center meets the same gain,
    which ``decide_release`` keeps, and a reattached one at most the larger
    of its last gain and 0, still not above the penalty.  Against moving
    every cluster each iteration, skipping gives a per-pair time ratio of
    0.672 on ``euclid-outlier``.  An empty cluster is reseeded, or held if
    it is fixed, in every iteration it stays empty.  An assignment with
    ``labels`` gives the masses straight from them: the changed points are
    those with w' > 0 whose label differs, and the moving clusters' members
    come from one stable sort, so only the first product of a discrete
    descent that starts from zero builds a (k, n) array
    (``_changed_clusters``, ``_mass_changes``, ``_members``), and no (n, k)
    y is built (against dense masses, a per-pair time ratio of 0.895 on
    ``euclid-outlier``).  Dense masses follow the same rules by comparing
    the masses.

    ``initial_centers`` are k candidate-site indices under discrete
    placement and k finite coordinate pairs otherwise; anything else raises
    ``ShapeMismatch`` or ``ValidationError``.  That one descent is returned,
    and its ``Infeasible`` or ``NoIncumbentWithinBudget`` raised.

    With one more leading axis, ``initial_centers`` holds one center set per
    restart (and ``start`` is then a list with one entry per restart, or
    None).  The restarts run in groups, in lockstep: each descent of a group
    runs on to its next continuous location step, and one call relocates
    the clusters of all of them.  A group of continuous descents without a
    capacity window holds as many restarts as keep restarts x n x k at most
    ``_LOCKSTEP_CELLS``, since each descent keeps its own (n, k) distance
    matrix.  A descent with a capacity window runs alone, since it owns the
    shared model's warm start while it runs, and a discrete descent never
    waits for a location call, so it runs to its end before the next
    starts.  The winning restart is returned: totals within
    ``RESTART_TIE_RTOL`` (1e-12) relative of the lowest tie, and the lowest
    restart index among them wins.  A restart that raises ``Infeasible`` or
    ``NoIncumbentWithinBudget`` fails with its message; when every one
    fails, ``AllRestartsInfeasible`` joins them.  When building the model
    raises ``Infeasible``, no restart can run, and one
    ``AllRestartsInfeasible`` carries that message once.  The winner's
    diagnostics add
    ``best_restart``, ``restarts``, ``restart_objectives`` (NaN for a
    failed restart) and ``restart_failures``.
    """
    problem = validate_problem(problem)
    centers, stacked = _checked_centers(problem, initial_centers)
    restarts, starts = (centers, start or [None] * len(centers)) if stacked else (centers[None], [start])
    if len(starts) != len(restarts):
        raise ValueError(f"{len(starts)} starts for {len(restarts)} restarts")
    try:
        model = lp_model(problem)
    except Infeasible as exc:
        if not stacked:
            raise
        raise AllRestartsInfeasible(f"every restart: {exc}") from exc
    # A shared model runs one descent at a time.
    size = 1 if model is not None else max(1, _LOCKSTEP_CELLS // (problem.n * problem.k))
    descents = [_descent(problem, c, config, model, s) for c, s in zip(restarts, starts)]
    outcomes = _finished(problem, descents, size)
    if stacked:
        return _best_restart(outcomes, len(restarts))
    [(_, outcome)] = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _descent(problem: Problem, centers: np.ndarray, config: SolverConfig, model, start):
    """One descent of ``descend`` from checked ``centers``, as a generator that returns its Solution.

    At each continuous location step it yields ``(points, masses, starts)``,
    its moving clusters' point indices and masses laid out as for
    ``update_centers_continuous``, and is sent back their ``CenterUpdate``
    and each cluster's cost at its update.  A discrete descent never yields.
    """
    spec = problem.centers
    k, m = spec.k, spec.n_fixed
    discrete = problem.placement == "discrete"
    kind = problem.metric.kind
    w = problem.effective_weights

    fixed_at = np.array(spec.fixed, dtype=centers.dtype).reshape(centers[:m].shape)
    is_fixed = np.arange(k) < m
    released: set[int] = set()
    D = metrics.distances_to_centers(problem, centers)
    if not discrete:  # row-major, as the allocation's argmin over each row reads it fastest
        D = np.ascontiguousarray(D)
    # The release gains read a moving fixed cluster's cost at its fixed
    # location from these; under an infinite penalty no center is weighed.
    releasable = m and not discrete and math.isfinite(spec.release_penalty)
    fixed_D = metrics.distances_to_centers(problem, fixed_at) if releasable else None
    if model is not None:
        model.restart()
    # The last iteration's location input (labels or masses); whether each
    # cluster's last update left Weiszfeld unconverged.
    last_input = None
    last_unconverged = np.zeros(k, dtype=bool)
    # Discrete placement keeps every cluster's weighted distance sum to
    # every site, and the input those sums last took in.  A descent handed
    # ``start`` takes its labels as the first assignment, and its totals.
    totals = seen = None
    if start is not None:
        seen, best, totals = start
    elif discrete:
        totals = np.zeros((k, problem.site_costs.shape[1]))

    diag: dict = {
        "iterations": 0,
        "empty_reseeds": 0,
        "weiszfeld_unconverged": 0,
        "objective_trace": [],
        "center_trace": [],
    }

    prev_total = math.inf
    stop = None
    for iteration in range(1, config.max_iterations + 1):
        diag["iterations"] = iteration
        if iteration == 1 and start is not None:
            assignment = _nearest_assignment(problem, seen, best)
        else:
            assignment = allocate(problem, centers, config.time_budget, distances=D, model=model)
        if "optimality_gap" in assignment.diagnostics:
            diag["optimality_gap"] = max(diag.get("optimality_gap", 0.0), assignment.diagnostics["optimality_gap"])
        after_alloc = evaluate_parts(problem, centers, assignment, released, distances=D)
        diag["objective_trace"].append(after_alloc.total)

        new_centers = centers.copy()
        new_released = set(released)
        changed, filled, current = _changed_clusters(assignment, w, last_input)
        empty = ~filled
        changed |= empty  # an empty cluster is reseeded or held again
        last_input = current
        last_unconverged[changed] = False
        held = changed & is_fixed & (math.isinf(spec.release_penalty) | empty)
        if held.any():
            # Nothing can release a held center, so it stays where it is fixed.
            new_centers[held] = fixed_at[held[:m]]
            new_released.difference_update(np.flatnonzero(held).tolist())
            changed &= ~held
        emptied = np.flatnonzero(changed & empty).tolist()
        moving = np.flatnonzero(changed & filled)
        if emptied:
            _reseed(problem, point_costs(problem, assignment, D), new_centers, emptied)
            diag["empty_reseeds"] += len(emptied)

        f = int(np.searchsorted(moving, m))  # the moving fixed clusters come first
        gains = np.empty(0)  # their cost at the fixed location minus their cost where they now stand
        if moving.size and discrete:
            # The kept totals take in the points that changed since they last
            # did; their rows price every site for every cluster.
            points, change = _mass_changes(current, seen, w, k)
            seen = current
            sites = update_center_discrete(problem.site_costs, change, totals=totals, rows=points, empty=empty,
                                           clusters=moving)
            new_centers[moving] = sites
            r = moving[:f]
            gains = totals[r, fixed_at[r]] - totals[r, sites[:f]]
        elif moving.size:
            # One batch: every moving cluster's points with positive mass, cluster after cluster.
            rows, points, mass = _members(current, w, moving, k)
            starts = np.searchsorted(rows, np.arange(moving.size))  # each moving cluster holds a point
            # The caller relocates them and prices them (``_finished``).
            update, then = yield points, mass, starts
            last_unconverged[moving] = ~update.converged
            # Keep the current location on the rare non-improving update so
            # the outer descent stays monotone.
            now = np.add.reduceat(mass * D[points, moving[rows]], starts)
            new_centers[moving] = np.where((then <= now)[:, None], update.coords, centers[moving])
            if f:  # min(then, now) is the cost where the center now stands
                lead = rows < f
                at_fixed = np.add.reduceat(mass[lead] * fixed_D[points[lead], moving[rows[lead]]], starts[:f])
                gains = at_fixed - np.minimum(then, now)[:f]
        for j, gain in zip(moving[:f].tolist(), gains.tolist()):
            if decide_release(gain, spec.release_penalty, j in released):
                new_released.add(j)
            else:
                new_released.discard(j)
                new_centers[j] = fixed_at[j]
        # A skipped cluster replays the count of its last update.
        diag["weiszfeld_unconverged"] += int(np.count_nonzero(last_unconverged))

        moved = np.flatnonzero(new_centers != centers if discrete else (new_centers != centers).any(axis=1))
        if moved.size:
            D[:, moved] = metrics.distances_to_centers(problem, new_centers[moved])
        after_loc = evaluate_parts(problem, new_centers, assignment, new_released, distances=D)
        diag["objective_trace"].append(after_loc.total)
        diag["center_trace"].append(new_centers.copy())

        if discrete:
            unchanged = not moved.size and new_released == released
        else:
            move = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
            unchanged = move < 1e-9 * problem.diameter and new_released == released
        centers, released = new_centers, new_released

        total = after_loc.total
        if unchanged:
            stop = "centers_unchanged"
            break
        if prev_total - total < config.convergence_tol * max(1.0, abs(prev_total)):
            stop = "objective_stalled"
            break
        prev_total = total
    diag["stop"] = stop or "iteration_cap"

    if stop == "centers_unchanged":
        objective = after_loc
    else:
        assignment = allocate(problem, centers, config.time_budget, distances=D, model=model)
        objective = evaluate_parts(problem, centers, assignment, released, distances=D)
        diag["objective_trace"].append(objective.total)

    if problem.has_outlier_column and assignment.labels is None:  # labels mean every q_i = 1
        flagged = np.flatnonzero((problem.coverages > 1) & (assignment.outlier_column > 1e-12))
        if flagged.size:
            diag["coverage_slots_on_outlier"] = problem.ids[flagged].tolist()
    return Solution(
        centers=centers,
        assignment=assignment,
        released=frozenset(released),
        objective=objective,
        diagnostics=diag,
    )


def _finished(problem: Problem, descents: list, size: int):
    """Run the ``_descent`` generators ``descents``, ``size`` at a time; yield each one's index and outcome as it ends.

    The outcome is the descent's Solution, or the ``Infeasible`` or
    ``NoIncumbentWithinBudget`` it raised.  The running descents go in
    rounds: each runs on to its next continuous location step, then one
    ``update_centers_continuous`` call takes the clusters of all of them,
    descent after descent, and one ``cluster_costs_continuous`` call prices
    every update; each sum is one ``reduceat`` segment, so a cluster's
    update and cost do not depend on its batch.  Each descent is sent its
    slices.  A descent that ends makes room for the next, in index order.

    Under the Euclidean metric, whose location step is the Newton loop of
    ``location._geometric_medians``, and with more than one descent, a
    cluster is relocated once: the update and cost of every cluster
    relocated so far are kept under its point indices and masses
    (``_Relocations``), so the location calls take only the clusters that
    no earlier round or descent sent, and a round whose clusters are all
    known makes neither call.  The memo holds 16 bytes per relocated point
    and about 150 bytes more per cluster, and it empties once it passes
    ``_MEMO_BYTES`` (8 MB).  The largest memo of a seed-1 euclid-outlier
    pass held 257 clusters in 0.28 MB; in that pass 5,945 of the 8,491
    clusters the descents send are distinct, and the 290 location calls
    fall to 272.  Solving 130,000 such points with k = 20 and 10 restarts,
    the peak memory was 187-196 MB with the budget, 270-272 MB without it
    and 201-221 MB before the memo (three runs each).  A single descent
    meets no other descent's clusters and skips its own unchanged ones, so
    it relocates every cluster sent, as do the other metrics: the mean and
    the lower median cost less than the keys (with the memo, 7.8% of the
    clusters of a seed-1 cap-fractional pass repeat, and its commands took
    4.9% longer).
    """
    kind, coords = problem.metric.kind, problem.coords
    memo = _Relocations(kind, coords) if kind == metrics.EUCLIDEAN and len(descents) > 1 else None
    pending = list(enumerate(descents))[::-1]
    running: dict = {}  # index -> (descent, what it is sent next)
    while pending or running:
        while pending and len(running) < size:
            i, descent = pending.pop()
            running[i] = descent, None
        batch = []  # (index, descent, its clusters)
        for i, (descent, update) in list(running.items()):
            try:
                batch.append((i, descent, descent.send(update)))
            except StopIteration as end:
                del running[i]
                yield i, end.value
            except (Infeasible, NoIncumbentWithinBudget) as exc:
                del running[i]
                yield i, exc
        if not batch:
            continue
        points, masses, starts = zip(*(clusters for *_, clusters in batch))
        offsets = np.cumsum([0] + [len(m) for m in masses[:-1]])
        points, masses = np.concatenate(points), np.concatenate(masses)
        all_starts = np.concatenate([s + offset for s, offset in zip(starts, offsets)])
        if memo is None:  # every cluster relocated, in batch order
            xy = coords.take(points, axis=0)
            update = update_centers_continuous(kind, xy, masses, all_starts)
            then = cluster_costs_continuous(kind, xy, masses, all_starts, update.coords)
        else:
            update, then = memo.relocate(points, masses, all_starts)
        end = 0
        for (i, descent, _), s in zip(batch, starts):
            part = slice(end, end + len(s))
            end = part.stop
            running[i] = descent, (CenterUpdate(update.coords[part], update.iterations[part], update.converged[part]),
                                   then[part])


class _Relocations:
    """The update and cost of each cluster that one ``_finished`` has relocated, kept under the cluster's key.

    A cluster's key is the bytes of its point indices and masses, 16 bytes
    per point.  With its dict entry and its rows of ``update`` and
    ``costs``, a cluster holds about 150 bytes more.  Once those bytes pass
    ``_MEMO_BYTES``, the memo empties before its next round, so it never
    holds more than that and one round's clusters.
    """

    def __init__(self, kind: str, coords: np.ndarray):
        self.kind, self.coords = kind, coords
        self._empty()

    def _empty(self) -> None:
        self.rows: dict[bytes, int] = {}  # key -> row of ``update`` and ``costs``
        self.update = CenterUpdate(np.empty((0, 2)), np.empty(0, dtype=int), np.empty(0, dtype=bool))
        self.costs = np.empty(0)
        self.held = 0  # bytes, as counted above

    def relocate(self, points: np.ndarray, masses: np.ndarray, starts: np.ndarray):
        """The CenterUpdate and costs of a batch, in batch order, relocating and pricing only clusters not kept."""
        if self.held > _MEMO_BYTES:
            self._empty()
        records = np.empty((len(points), 2), dtype=np.int64)  # one 16-byte record per point: index, then mass bits
        records[:, 0], records[:, 1] = points, masses.view(np.int64)
        records = records.tobytes()
        bounds = starts.tolist() + [len(points)]
        keys = [records[16 * s:16 * e] for s, e in zip(bounds, bounds[1:])]
        known = self.rows
        rows = list(map(known.get, keys))
        fresh = np.zeros(len(keys), dtype=bool)
        for r in [r for r, row in enumerate(rows) if row is None]:
            row = known.get(keys[r])  # a cluster repeated in the batch is fresh only where it comes first
            if row is None:
                row = known[keys[r]] = len(known)
                fresh[r] = True
                self.held += len(keys[r]) + 150
            rows[r] = row
        if len(known) > len(self.costs):
            take, _, new_starts = _keep(fresh, np.diff(bounds))
            xy, new_masses = self.coords.take(points.take(take), axis=0), masses.take(take)
            update = update_centers_continuous(self.kind, xy, new_masses, new_starts)
            then = cluster_costs_continuous(self.kind, xy, new_masses, new_starts, update.coords)
            self.update = CenterUpdate(*map(np.concatenate, zip(self.update, update)))
            self.costs = np.concatenate([self.costs, then])
        rows, kept = np.array(rows), self.update
        batch = CenterUpdate(kept.coords.take(rows, axis=0), kept.iterations[rows], kept.converged[rows])
        return batch, self.costs[rows]


def _best_restart(outcomes, restarts: int) -> Solution:
    """The winner of ``restarts`` restarts by the rule of ``descend``, from their ``(index, outcome)`` in any order.

    The restarts within the tie rule of the lowest total so far are the
    only Solutions kept, in a heap with the highest total on top: the
    rule's bound only falls as the lowest does, so each one is pushed once
    and popped at most once.
    """
    tied: list[tuple[float, int, Solution]] = []  # (-total, index, Solution)
    lowest = math.inf
    objectives = [math.nan] * restarts
    failed: dict[int, str] = {}
    for r, outcome in outcomes:
        if not isinstance(outcome, Solution):
            failed[r] = f"restart {r}: {outcome}"
            continue
        total = objectives[r] = outcome.objective.total
        lowest = min(lowest, total)
        heapq.heappush(tied, (-total, r, outcome))
        while -tied[0][0] > lowest + RESTART_TIE_RTOL * abs(lowest):
            heapq.heappop(tied)
    failures = [failed[r] for r in sorted(failed)]
    if not tied:
        raise AllRestartsInfeasible("; ".join(failures))
    _, r, best = min(tied, key=lambda entry: entry[1])
    best.diagnostics.update(best_restart=r, restarts=restarts, restart_objectives=objectives,
                            restart_failures=failures)
    return best


def _sequences(problem: Problem, config: SolverConfig) -> list[_SeedBatch]:
    """The k-means++ draw sequences of every restart of a validated ``problem``, none of them drawn yet.

    Restart r draws from the r-th stream spawned from ``config.rng_seed``.
    The restarts go, in order, in lockstep groups (``_SeedBatch``) of as
    many as keep restarts x n at most ``_LOCKSTEP_CELLS``, since a group's
    seeding state is (R, n) arrays.  Under discrete placement, where the
    first allocation is the nearest assignment, each group tracks its
    labels and site totals.
    """
    track = _allocates_nearest_labels(problem)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.rng_seed).spawn(config.restarts)]
    size = max(1, _LOCKSTEP_CELLS // problem.n)
    return [_SeedBatch(problem, rngs[i:i + size], track) for i in range(0, len(rngs), size)]


def solve(problem: Problem, config: SolverConfig = SolverConfig(), *, sequences=None) -> Solution:
    """Best of ``config.restarts`` independent k-means++ descents.

    Restart r seeds from the r-th stream spawned from ``config.rng_seed``,
    whatever k is: its seeds are the first k of one draw sequence.  The
    solve builds its restarts' sequences, in lockstep groups
    (``_sequences``), or takes a sweep's (``sequences``, private;
    ``sweep_k`` hands the same groups to every k of one problem, so each
    sequence is drawn once, up to the largest k), and draws each group to
    k together (``_SeedBatch.first``).  Then one ``descend`` call runs
    every restart from its first k seeds, in lockstep groups, and returns
    the winner by its restart rule (totals within ``RESTART_TIE_RTOL``,
    1e-12, relative of the lowest tie, and the lowest restart index among
    them wins, so a change to the order of floating-point sums leaves the
    winner, and its center labels, alone).  Under discrete placement,
    where the solve's own first allocation is the nearest assignment, each
    group also hands its descents their starts (``_SeedBatch.starts``);
    otherwise no descent gets one, even from groups that keep them.

    A capacitated problem gets one allocation model (``lp_model``), which
    every descent restarts, so each descent's first LP solves as on a new
    model.  When its checks raise ``Infeasible``, the solve raises one
    ``AllRestartsInfeasible`` with that message.
    """
    problem = validate_problem(problem)
    t0 = time.monotonic()
    k = problem.k
    groups = _sequences(problem, config) if sequences is None else sequences
    centers = np.concatenate([group.first(k) for group in groups])
    starts = [start for group in groups for start in group.starts(k)] if _allocates_nearest_labels(problem) else None
    best = descend(problem, centers, config, start=starts)
    best.diagnostics["wall_time_s"] = time.monotonic() - t0
    return best
