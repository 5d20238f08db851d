"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own solution paths:
the LP oracle is scipy's HiGHS on the dense membership variables, the
negative-cycle oracle checks LP optimality with no LP solver at all, the
hard-assignment oracle enumerates every labeling, the geometric-median
oracle refines a grid search, the seeding oracle draws one restart's
k-means++ seeds in a plain loop, and the ARI oracle counts pairs directly.
The reference descent, the oracle of every shortcut ``descend`` takes, is
built from the package's allocation function and its location functions
called on one cluster at a time, with nothing kept between calls.
"""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np
from scipy.optimize import linprog

from capclust import (
    CenterSpec, Point, Problem, Solution, allocate, decide_release, kmeanspp_init, matrix_metric,
    update_centers_continuous, validate_problem,
)
from capclust.errors import AllRestartsInfeasible, Infeasible, NoIncumbentWithinBudget, NotEnoughDistinctSites
from capclust.location import cluster_costs_continuous
from capclust.metrics import distances_to_centers
from capclust.model import evaluate_parts
from capclust.solver import RESTART_TIE_RTOL


def random_capacitated_instance(rng, n_max=8, k_max=3, with_outlier=None, integral=False):
    """Small random instance on a distance matrix with a random capacity window."""
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    D = np.round(rng.uniform(0, 10, size=(n, k)), 6)
    if integral:
        a = rng.integers(1, 5, size=n).astype(float)
    else:
        a = np.round(rng.uniform(0.3, 4.0, size=n), 6)
    w = np.round(rng.uniform(0.1, 3.0, size=n), 6)
    if with_outlier is None:
        with_outlier = bool(rng.random() < 0.5)
    lam = float(np.round(rng.uniform(2, 8), 6)) if with_outlier else None
    total = a.sum()
    lo = float(np.round(rng.uniform(0, 0.7 * total / k), 6))
    hi = float(np.round(rng.uniform(0.6 * total / k, 1.2 * total), 6))
    if lo > hi:
        lo, hi = hi, lo
    points = tuple(Point(i, w=float(w[i]), a=float(a[i])) for i in range(n))
    problem = validate_problem(Problem(
        points=points, metric=matrix_metric(D),
        centers=CenterSpec(k=k),
        membership="hard", capacity=(lo, hi), outlier_penalty=lam,
    ))
    return problem, np.arange(k)


def brute_force_hard(problem, D) -> float | None:
    """Optimal hard-assignment objective by enumerating (k+1)^n labelings; None if infeasible."""
    n, k = D.shape
    lam = problem.outlier_penalty
    cols = k + (1 if lam is not None else 0)
    a = problem.capacity_coeffs
    w = problem.effective_weights
    lo, hi = problem.capacity
    grids = np.array(list(itertools.product(range(cols), repeat=n)), dtype=int)
    cost_cols = w[:, None] * D
    if lam is not None:
        cost_cols = np.column_stack([cost_cols, w * lam])
    costs = cost_cols[np.arange(n)[None, :], grids].sum(axis=1)
    feasible = np.ones(len(grids), dtype=bool)
    for j in range(k):
        load = (grids == j).astype(float) @ a
        feasible &= (load >= lo - 1e-9) & (load <= hi + 1e-9)
    if not feasible.any():
        return None
    return float(costs[feasible].min())


def dense_lp_fractional(problem, D) -> float | None:
    """Exact fractional optimum via scipy HiGHS on the dense y variables; None if infeasible."""
    n, k = D.shape
    lam = problem.outlier_penalty
    cols = k + (1 if lam is not None else 0)
    a = problem.capacity_coeffs
    w = problem.effective_weights
    q = problem.coverages.astype(float)
    lo, hi = problem.capacity
    c = (w[:, None] * D).ravel()
    if lam is not None:
        c = np.column_stack([w[:, None] * D, (w * lam)[:, None]]).ravel()
    A_eq = np.zeros((n, n * cols))
    for i in range(n):
        A_eq[i, i * cols: (i + 1) * cols] = 1.0
    A_ub = np.zeros((2 * k, n * cols))
    b_ub = np.zeros(2 * k)
    for j in range(k):
        for i in range(n):
            A_ub[j, i * cols + j] = a[i]
            A_ub[k + j, i * cols + j] = -a[i]
        b_ub[j] = hi
        b_ub[k + j] = -lo
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=q,
                  bounds=[(0.0, 1.0)] * (n * cols), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, f"linprog status {res.status}"
    return float(res.fun)


def residual_negative_cycle(problem, D, y, tol=1e-9) -> bool:
    """Whether the flow residual of a feasible fractional y has a negative-cost cycle.

    Flow view, for the points with a_i > 0: z_ij = a_i y_ij units move on an
    arc point i -> column j of capacity a_i and unit cost w'_i d_ij / a_i
    (lambda_o w'_i / a_i into the outlier node); each center drains to the
    sink on an arc bounded by the capacity window [L, U], and the outlier
    node on an uncapacitated arc.  A feasible flow is a min-cost flow, so y
    is LP-optimal, exactly when its residual graph has no negative cycle.
    Bellman-Ford from a virtual source decides it; residual capacities and
    relaxations below ``tol`` (relative) are ignored as rounding noise.
    """
    n, k = D.shape
    lam = problem.outlier_penalty
    a = problem.capacity_coeffs
    w = problem.effective_weights
    lo, hi = problem.capacity
    pos = [i for i in range(n) if a[i] > 0]
    center = {j: len(pos) + j for j in range(k)}
    outlier = len(pos) + k
    sink = outlier + 1
    arcs = []  # (tail, head, cost, flow, lower, upper)
    for t, i in enumerate(pos):
        for j in range(k):
            arcs.append((t, center[j], w[i] * D[i, j] / a[i], a[i] * y[i, j], 0.0, a[i]))
        if lam is not None:
            arcs.append((t, outlier, w[i] * lam / a[i], a[i] * y[i, k], 0.0, a[i]))
    for j in range(k):
        load = sum(a[i] * y[i, j] for i in pos)
        arcs.append((center[j], sink, 0.0, load, lo, hi))
    if lam is not None:
        spill = sum(a[i] * y[i, k] for i in pos)
        arcs.append((outlier, sink, 0.0, spill, 0.0, np.inf))

    scale = max(1.0, float(a.max(initial=1.0)))
    residual = []
    for tail, head, cost, flow, lower, upper in arcs:
        if flow < upper - tol * scale:
            residual.append((tail, head, cost))
        if flow > lower + tol * scale:
            residual.append((head, tail, -cost))
    cost_scale = max(1.0, max(abs(c) for _t, _h, c in residual)) if residual else 1.0
    dist = [0.0] * (sink + 1)  # a virtual source reaches every node at cost 0
    for _ in range(sink + 1):
        changed = False
        for tail, head, cost in residual:
            if dist[tail] + cost < dist[head] - tol * cost_scale:
                dist[head] = dist[tail] + cost
                changed = True
        if not changed:
            return False
    return True


def reference_distances(problem, centers) -> np.ndarray:
    """The (n, len(centers)) metric distances from every point to ``centers``, written out per metric.

    ``centers`` are candidate-site indices under discrete placement and
    coordinate pairs otherwise.
    """
    kind = problem.metric.kind
    if problem.placement == "discrete":
        if kind == "matrix":
            return problem.metric.matrix[:, np.asarray(centers, dtype=int)]
        locations = problem.centers.candidates[np.asarray(centers, dtype=int)]
    else:
        locations = np.asarray(centers, dtype=float).reshape(-1, 2)
    xy = problem.points.coords
    dx = xy[:, 0, None] - locations[None, :, 0]
    dy = xy[:, 1, None] - locations[None, :, 1]
    if kind == "manhattan":
        return np.abs(dx) + np.abs(dy)
    squared = dx * dx + dy * dy
    if kind == "sqeuclidean":
        return squared
    if kind == "threshold":
        return (np.sqrt(squared) >= problem.metric.threshold).astype(float)
    return np.sqrt(squared)


def reference_kmeanspp(problem, rng) -> np.ndarray:
    """The k-means++ seeds of one restart by a plain loop; ``rng`` is left after their draws.

    Fixed centers come first.  Each further seed is drawn by ``rng.choice``
    with probability proportional to w'_i D(x_i)^2, D the distance to the
    nearest seed so far (plain w' before any seed).  Under discrete
    placement only the points whose nearest site (lowest index on ties) is
    free take part, and the draw snaps to that site.  Without positive mass
    the draw is uniform over the points taking part; without any point, the
    seed is the lowest free site, and without a free site the loop raises
    ``NotEnoughDistinctSites``.
    """
    spec = problem.centers
    discrete = problem.placement == "discrete"
    w = problem.effective_weights
    n = len(w)
    if discrete:
        n_sites = problem.metric.matrix.shape[1] if problem.metric.kind == "matrix" else len(spec.candidates)
        snap = np.argmin(reference_distances(problem, np.arange(n_sites)), axis=1)
        chosen = [int(f) for f in spec.fixed]
    else:
        chosen = [np.asarray(f, dtype=float) for f in spec.fixed]
    best = reference_distances(problem, chosen).min(axis=1) if chosen else None
    while len(chosen) < spec.k:
        eligible = np.array([int(h) not in chosen for h in snap]) if discrete else np.ones(n, dtype=bool)
        masses = np.where(eligible, w if best is None else w * best**2, 0.0)
        if masses.sum() <= 0:
            masses = eligible.astype(float)
        if masses.sum() > 0:
            i = int(rng.choice(n, p=masses / masses.sum()))
            seed = int(snap[i]) if discrete else problem.points.coords[i].copy()
        else:
            free = [h for h in range(n_sites) if h not in chosen]
            if not free:
                raise NotEnoughDistinctSites(f"cannot place {len(chosen) + 1} centers on {n_sites} sites")
            seed = free[0]
        chosen.append(seed)
        d = reference_distances(problem, [seed])[:, 0]
        best = d if best is None else np.minimum(best, d)
    return np.asarray(chosen, dtype=int) if discrete else np.vstack(chosen)


def reference_lloyd(xy: np.ndarray, centers0: np.ndarray, max_iter: int = 100):
    """Textbook Lloyd iteration (squared Euclidean, unit weights).

    Returns the list of center arrays after each update step.
    """
    centers = centers0.astype(float).copy()
    trail = []
    for _ in range(max_iter):
        d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new = centers.copy()
        for j in range(len(centers)):
            mask = labels == j
            if mask.any():
                new[j] = np.average(xy[mask], axis=0, weights=np.ones(mask.sum()))
        trail.append(new.copy())
        if np.array_equal(new, centers):
            break
        centers = new
    return trail


def reference_descend(problem, initial_centers, config) -> Solution:
    """The rules of ``solver.descend``, with nothing passed between iterations but centers and releases.

    Each iteration allocates afresh, recomputes every distance and relocates
    every cluster alone: ``update_centers_continuous`` on a batch of one,
    or the site minimizing a fresh product of its masses and the site
    costs (ties to the lowest index).  Fixed centers that are empty or
    never releasable stay attached; other empty clusters are reseeded in
    index order at the costliest point whose spot is free.
    """
    problem = validate_problem(problem)
    spec, w, kind = problem.centers, problem.effective_weights, problem.metric.kind
    k, m, penalty = spec.k, spec.n_fixed, spec.release_penalty
    discrete = problem.placement == "discrete"
    centers = np.array(initial_centers, dtype=int if discrete else float)
    fixed_at = np.array(spec.fixed, dtype=centers.dtype).reshape(centers[:m].shape)
    released: set[int] = set()
    diag = {"iterations": 0, "empty_reseeds": 0, "weiszfeld_unconverged": 0, "objective_trace": [], "center_trace": []}
    prev_total, stop = math.inf, None
    for iteration in range(1, config.max_iterations + 1):
        diag["iterations"] = iteration
        assignment = allocate(problem, centers, config.time_budget)
        diag["objective_trace"].append(evaluate_parts(problem, centers, assignment, released).total)
        mass = w[:, None] * assignment.center_block
        members = [np.flatnonzero(mass[:, j] > 0) for j in range(k)]
        new, new_released = centers.copy(), set(released)
        for j in range(m):
            if not members[j].size or math.isinf(penalty):
                new[j] = fixed_at[j]
                new_released.discard(j)
        emptied = [j for j in range(m, k) if not members[j].size]
        contrib = (w[:, None] * distances_to_centers(problem, centers) * assignment.center_block).sum(axis=1)
        snap = problem.nearest_site if discrete else np.arange(problem.n)
        held = np.zeros(problem.site_costs.shape[1] if discrete else problem.n, dtype=bool)
        if discrete:
            held[[new[j] for j in range(k) if j not in emptied]] = True
        for j in emptied:
            eligible = ~held[snap]
            if eligible.any():
                spot = int(snap[np.argmax(np.where(eligible, contrib, -np.inf))])
            else:
                spot = int(np.flatnonzero(~held)[0]) if discrete else int(np.argmax(contrib))
            held[spot] = True
            new[j] = spot if discrete else problem.coords[spot]
        diag["empty_reseeds"] += len(emptied)
        for j in range(k):
            if not members[j].size or j < m and math.isinf(penalty):
                continue
            if discrete:
                sums = mass[:, j] @ problem.site_costs
                new[j] = int(np.argmin(sums))
                gain = sums[fixed_at[j]] - sums[new[j]] if j < m else 0.0
            else:
                xy, mj = problem.coords[members[j]], mass[members[j], j]
                update = update_centers_continuous(kind, xy, mj, [0])
                diag["weiszfeld_unconverged"] += not update.converged[0]
                then, now = (cluster_costs_continuous(kind, xy, mj, [0], c[None])[0]
                             for c in (update.coords[0], centers[j]))
                new[j] = update.coords[0] if then <= now else centers[j]
                if j < m:
                    gain = cluster_costs_continuous(kind, xy, mj, [0], fixed_at[j][None])[0] - min(then, now)
            if j < m and decide_release(gain, penalty, j in released):
                new_released.add(j)
            elif j < m:
                new_released.discard(j)
                new[j] = fixed_at[j]
        after = evaluate_parts(problem, new, assignment, new_released)
        diag["objective_trace"].append(after.total)
        diag["center_trace"].append(new.copy())
        if discrete:
            unchanged = np.array_equal(new, centers)
        else:
            unchanged = np.sqrt(((new - centers) ** 2).sum(axis=1)).max() < 1e-9 * problem.diameter
        unchanged = unchanged and new_released == released
        centers, released = new, new_released
        if unchanged or prev_total - after.total < config.convergence_tol * max(1.0, abs(prev_total)):
            stop = "centers_unchanged" if unchanged else "objective_stalled"
            break
        prev_total = after.total
    diag["stop"] = stop or "iteration_cap"
    if stop != "centers_unchanged":
        assignment = allocate(problem, centers, config.time_budget)
        after = evaluate_parts(problem, centers, assignment, released)
        diag["objective_trace"].append(after.total)
    return Solution(centers, assignment, frozenset(released), after, diag)


def reference_solve(problem, config) -> Solution:
    """Best of reference descents from ``kmeanspp_init`` on the streams ``solver.solve`` spawns.

    The lowest restart index within ``RESTART_TIE_RTOL`` relative of the lowest total wins.
    """
    results = []
    for stream in np.random.SeedSequence(config.rng_seed).spawn(config.restarts):
        centers0 = kmeanspp_init(problem, np.random.default_rng(stream))
        try:
            results.append(reference_descend(problem, centers0, config))
        except (Infeasible, NoIncumbentWithinBudget):
            results.append(None)
    totals = [math.nan if s is None else s.objective.total for s in results]
    if all(s is None for s in results):
        raise AllRestartsInfeasible("every restart is infeasible")
    lowest = np.nanmin(totals)
    r = next(r for r, total in enumerate(totals) if total <= lowest + RESTART_TIE_RTOL * abs(lowest))
    results[r].diagnostics.update(best_restart=r, restart_objectives=totals)
    return results[r]


def assert_same_solution(got, expect, rtol=0.0):
    """Assert equal answers; with ``rtol``, objectives and centers agree to ``rtol`` relative, memberships to 1e-9."""
    def close(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or np.array_equal(a, b, equal_nan=True):
            return a.shape == b.shape
        return bool(np.all(np.abs(a - b) <= rtol * np.abs(b).max()))

    if rtol:
        assert np.allclose(got.assignment.y, expect.assignment.y, rtol=0.0, atol=1e-9)
    else:
        assert np.array_equal(got.assignment.y, expect.assignment.y)
        assert np.array_equal(got.assignment.hard_labels(), expect.assignment.hard_labels())
    assert got.released == expect.released
    for name in ("stop", "iterations", "empty_reseeds", "weiszfeld_unconverged", "best_restart"):
        assert got.diagnostics.get(name) == expect.diagnostics.get(name), name
    for name in ("objective_trace", "restart_objectives"):
        assert close(got.diagnostics.get(name, []), expect.diagnostics.get(name, [])), name
    trace, expect_trace = got.diagnostics["center_trace"], expect.diagnostics["center_trace"]
    assert len(trace) == len(expect_trace)
    assert all(close(a, b) for a, b in zip([got.centers, *trace], [expect.centers, *expect_trace]))


def grid_refine_median(xy: np.ndarray, masses: np.ndarray, rounds: int = 6, res: int = 200) -> np.ndarray:
    """Geometric median by iteratively zoomed 200x200 grid search."""
    lo = xy.min(axis=0).astype(float)
    hi = xy.max(axis=0).astype(float)
    span = np.maximum(hi - lo, 1e-12)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    best = None
    for _ in range(rounds):
        gx = np.linspace(lo[0], hi[0], res)
        gy = np.linspace(lo[1], hi[1], res)
        GX, GY = np.meshgrid(gx, gy, indexing="ij")
        pts = np.stack([GX.ravel(), GY.ravel()], axis=1)
        d = np.sqrt(((pts[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
        obj = d @ masses
        i = int(np.argmin(obj))
        best = pts[i]
        cell = (hi - lo) / (res - 1)
        lo = best - 2 * cell
        hi = best + 2 * cell
    return best


def pair_count_ari(a, b) -> float:
    """Adjusted Rand index by direct enumeration over all point pairs."""
    a = list(a)
    b = list(b)
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds += 1
            else:
                dd += 1
    total = comb(n, 2)
    if total == 0:
        return 1.0
    sum_a = ss + sd
    sum_b = ss + ds
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (ss - expected) / (max_index - expected)
