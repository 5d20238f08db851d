"""Block coordinate descent with k-means++ multi-restart.

Each restart seeds centers (fixed centers first, the rest by weighted
k-means++), then alternates the exact allocation step with the location
step (including release decisions for fixed centers) until the objective
stalls or the centers stop moving.  Restarts draw from counter-spawned RNG
streams so the set of restarts is independent of execution order, and the
best restart by total objective wins (ties to the lowest restart index).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import metrics
from .allocation import allocate
from .errors import AllRestartsInfeasible, Infeasible, NoIncumbentWithinBudget, NotEnoughDistinctSites
from .location import cluster_cost_continuous, decide_release, update_center_continuous, update_center_discrete
from .model import Assignment, Problem, Solution, evaluate_parts, validate_problem


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the multi-restart descent.

    ``restarts`` of 50-100 give publication-grade robustness; the default
    favors interactive runs.  ``time_budget`` is seconds per hard
    allocation call, not for the whole solve.
    """

    restarts: int = 10
    rng_seed: int = 0
    max_iterations: int = 200
    convergence_tol: float = 1e-9
    time_budget: float | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


def kmeanspp_init(problem: Problem, rng: np.random.Generator):
    """Seed k centers: fixed ones first, the rest by w'-weighted k-means++.

    Free seeds are drawn from the data with probability proportional to
    w'_i * D(x_i)^2 where D is the configured metric's distance to the
    nearest center chosen so far (plain w' for the very first draw).  In
    discrete placement each draw snaps to its nearest candidate site and
    occupied sites are redrawn.
    """
    spec = problem.centers
    k, n = spec.k, problem.n
    w = problem.effective_weights
    discrete = spec.placement == "discrete"

    def draw(masses: np.ndarray, eligible: np.ndarray) -> int | None:
        masses = np.where(eligible, masses, 0.0)
        total = masses.sum()
        if total <= 0:
            if not eligible.any():
                return None
            masses = eligible.astype(float)
            total = masses.sum()
        return int(rng.choice(n, p=masses / total))

    if discrete:
        cand = metrics.candidate_distances(problem)
        n_sites = cand.shape[1]
        snap = np.argmin(cand, axis=1)
        chosen: list[int] = [int(f) for f in spec.fixed]
        best = np.min(cand[:, chosen], axis=1) if chosen else None
        while len(chosen) < k:
            masses = w * best**2 if best is not None else w
            i = draw(masses, ~np.isin(snap, chosen))
            if i is None:
                unused = np.flatnonzero(~np.isin(np.arange(n_sites), chosen))
                if not unused.size:
                    raise NotEnoughDistinctSites(f"cannot place {k} centers on {n_sites} sites")
                site = int(unused[0])
            else:
                site = int(snap[i])
            chosen.append(site)
            d_new = cand[:, site]
            best = d_new if best is None else np.minimum(best, d_new)
        return np.asarray(chosen, dtype=int)

    coords = problem.coords
    kind = problem.metric.kind
    chosen_xy: list[np.ndarray] = [np.asarray(f, dtype=float) for f in spec.fixed]
    best = None
    if chosen_xy:
        best = metrics.geometric_distances(kind, coords, np.vstack(chosen_xy)).min(axis=1)
    while len(chosen_xy) < k:
        masses = w * best**2 if best is not None else w
        i = draw(masses, np.ones(n, dtype=bool))
        pick = coords[i].copy()
        chosen_xy.append(pick)
        d_new = metrics.geometric_distances(kind, coords, pick[None, :])[:, 0]
        best = d_new if best is None else np.minimum(best, d_new)
    return np.vstack(chosen_xy)


def _reseed_position(problem: Problem, costs: np.ndarray, y_centers: np.ndarray, snap: np.ndarray | None):
    """Spot for an emptied center: the point with the largest current cost."""
    contrib = (costs * y_centers).sum(axis=1)
    i = int(np.argmax(contrib))
    if problem.centers.placement == "discrete":
        return int(snap[i])
    return problem.coords[i].copy()


def _cluster_cost(problem: Problem, rows: np.ndarray, masses: np.ndarray, location) -> float:
    """Weighted distance sum of one cluster at a location.

    ``rows`` are the cluster's rows of the candidate distances in discrete
    placement (``location`` is a site index) and its coordinates otherwise.
    """
    if problem.centers.placement == "discrete":
        return float(masses @ rows[:, int(location)])
    return cluster_cost_continuous(problem.metric.kind, rows, masses, location)


def _same_input(previous, masses: np.ndarray, released: bool | None) -> bool:
    """Whether a cluster's location input equals the one of its last update."""
    return previous is not None and previous[1] == released and np.array_equal(previous[0], masses)


def descend(problem: Problem, initial_centers, config: SolverConfig) -> Solution:
    """Alternate exact allocation and location steps from the given centers.

    The (n, k) distance matrix is computed once per center configuration
    and shared by the allocation, the objective evaluations, reseeding and
    the monotone guard.

    Every center moves by one rule.  It takes its cluster's optimum from
    ``update_center_discrete`` or ``update_center_continuous``; a continuous
    optimum that costs more than the current location is dropped for it
    (the monotone guard).  A fixed center is then released when the gain of
    that location over its fixed one passes ``decide_release``, and put back
    at its fixed location otherwise.  A fixed center that cannot be released
    (infinite penalty or empty cluster) stays fixed without an update.

    A cluster whose location input (its mass column, plus the released flag
    of a fixed center) equals the input of its last update keeps its center:
    the location step is deterministic and the guard only ever keeps the
    previous center, so recomputing would return the center it already
    holds.
    """
    problem = validate_problem(problem)
    spec = problem.centers
    k, m = spec.k, spec.n_fixed
    discrete = spec.placement == "discrete"
    w = problem.effective_weights

    centers = np.array(initial_centers, dtype=int if discrete else float).copy()
    released: set[int] = set()
    cand = metrics.candidate_distances(problem) if discrete else None
    snap = np.argmin(cand, axis=1) if discrete else None
    D = metrics.distances_to_centers(problem, centers)
    # Per cluster: (masses, released flag or None, unconverged) of its last update.
    last_input: list[tuple | None] = [None] * k

    diag: dict = {
        "iterations": 0,
        "empty_reseeds": 0,
        "weiszfeld_unconverged": 0,
        "objective_trace": [],
        "center_trace": [],
    }

    assignment: Assignment | None = None
    prev_total = math.inf
    stop = None
    for iteration in range(1, config.max_iterations + 1):
        diag["iterations"] = iteration
        assignment = allocate(problem, centers, config.time_budget, distances=D)
        if "optimality_gap" in assignment.diagnostics:
            diag["optimality_gap"] = max(diag.get("optimality_gap", 0.0), assignment.diagnostics["optimality_gap"])
        after_alloc = evaluate_parts(problem, centers, assignment, released, distances=D)
        diag["objective_trace"].append(after_alloc.total)

        new_centers = centers.copy()
        new_released = set(released)
        for j in range(k):
            masses = w * assignment.center_block[:, j]
            nz = masses > 0
            flag = j in released if j < m else None
            if _same_input(last_input[j], masses, flag):
                diag["weiszfeld_unconverged"] += last_input[j][2]
                continue
            unconverged = False
            if j < m and (math.isinf(spec.release_penalty) or not nz.any()):
                # Nothing can release this center, so it stays where it is fixed.
                new_centers[j] = spec.fixed[j]
                new_released.discard(j)
            elif not nz.any():
                costs = w[:, None] * D
                new_centers[j] = _reseed_position(problem, costs, assignment.center_block, snap)
                diag["empty_reseeds"] += 1
                last_input[j] = None
                continue
            else:
                rows, mass = (cand if discrete else problem.coords)[nz], masses[nz]
                if discrete:
                    new_centers[j] = update_center_discrete(rows, mass)
                else:
                    update = update_center_continuous(problem.metric.kind, rows, mass)
                    unconverged = not update.converged
                    # Keep the current location on the rare non-improving update
                    # so the outer descent stays monotone.
                    improves = _cluster_cost(problem, rows, mass, update.coords) <= float(mass @ D[nz, j])
                    new_centers[j] = update.coords if improves else centers[j]
                if j < m:
                    fixed_cost = _cluster_cost(problem, rows, mass, spec.fixed[j])
                    gain = fixed_cost - _cluster_cost(problem, rows, mass, new_centers[j])
                    if decide_release(gain, spec.release_penalty, flag):
                        new_released.add(j)
                    else:
                        new_released.discard(j)
                        new_centers[j] = spec.fixed[j]
            diag["weiszfeld_unconverged"] += unconverged
            last_input[j] = (masses, flag, unconverged)

        D = metrics.distances_to_centers(problem, new_centers)
        after_loc = evaluate_parts(problem, new_centers, assignment, new_released, distances=D)
        diag["objective_trace"].append(after_loc.total)
        diag["center_trace"].append(new_centers.copy())

        if discrete:
            unchanged = bool(np.array_equal(new_centers, centers)) and new_released == released
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

    if stop != "centers_unchanged":
        assignment = allocate(problem, centers, config.time_budget, distances=D)
    objective = evaluate_parts(problem, centers, assignment, released, distances=D)
    if stop != "centers_unchanged":
        diag["objective_trace"].append(objective.total)

    if problem.has_outlier_column:
        flagged = np.flatnonzero((problem.coverages > 1) & (assignment.outlier_column > 1e-12))
        if flagged.size:
            diag["coverage_slots_on_outlier"] = [problem.points[i].id for i in flagged]
    return Solution(
        centers=centers,
        assignment=assignment,
        released=frozenset(released),
        objective=objective,
        diagnostics=diag,
    )


def solve(problem: Problem, config: SolverConfig = SolverConfig()) -> Solution:
    """Best of ``config.restarts`` independent k-means++ descents."""
    problem = validate_problem(problem)
    t0 = time.monotonic()
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.restarts)
    best: Solution | None = None
    failures: list[str] = []
    objectives: list[float] = []
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        try:
            centers0 = kmeanspp_init(problem, rng)
            candidate = descend(problem, centers0, config)
        except (Infeasible, NoIncumbentWithinBudget) as exc:
            failures.append(f"restart {r}: {exc}")
            objectives.append(math.nan)
            continue
        objectives.append(candidate.objective.total)
        if best is None or candidate.objective.total < best.objective.total:
            best = candidate
            best.diagnostics["best_restart"] = r
    if best is None:
        raise AllRestartsInfeasible("; ".join(failures))
    best.diagnostics["restarts"] = config.restarts
    best.diagnostics["restart_objectives"] = objectives
    best.diagnostics["restart_failures"] = failures
    best.diagnostics["wall_time_s"] = time.monotonic() - t0
    return best
