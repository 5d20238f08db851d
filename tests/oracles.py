"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own solution paths:
the LP oracle is scipy's HiGHS on the dense membership variables, the
negative-cycle oracle checks LP optimality with no LP solver at all, the
hard-assignment oracle enumerates every labeling, the geometric-median
oracle refines a grid search, and the ARI oracle counts pairs directly.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
from scipy.optimize import linprog

from capclust import CenterSpec, Point, Problem, matrix_metric, validate_problem


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
        centers=CenterSpec(k=k, placement="discrete"),
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
