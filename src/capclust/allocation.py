"""Allocation step: minimize the objective over memberships with centers fixed.

Three regimes:

* no capacity window: each point independently takes its cheapest columns
  (the outlier column costs lambda_o per unit of effective weight), which is
  exact and identical for hard and fractional membership;
* capacity window + fractional membership: an exact linear program over the
  memberships y_ij, solved by HiGHS (scipy.optimize.milp);
* capacity window + hard membership: the same program with binary y_ij, a
  mixed-integer program solved by HiGHS to a zero optimality gap, after
  aggregate feasibility checks and an LP-relaxation fast path.

Points with capacity coefficient a_i = 0 use no capacity, so they take
their cheapest columns outside the program in every regime.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from . import metrics
from .errors import CapclustError, Infeasible, NoIncumbentWithinBudget, QExceedsK
from .model import FRACTIONAL, HARD, Assignment, Problem


def allocate(problem: Problem, centers, time_budget: float | None = None, *, distances=None) -> Assignment:
    """Optimal memberships for fixed centers.

    ``distances`` is the (n, k) matrix of raw distances to ``centers`` when
    the caller already holds it; otherwise it is computed here.
    """
    if problem.capacity is None:
        return allocate_uncapacitated(problem, centers, distances=distances)
    if problem.membership == FRACTIONAL:
        return allocate_fractional(problem, centers, distances=distances)
    return allocate_hard(problem, centers, time_budget, distances=distances)


def _column_costs(problem: Problem, D: np.ndarray) -> np.ndarray:
    """Per-point column costs (n, k[+1]) in w'-units from raw distances D."""
    w = problem.effective_weights
    cost = w[:, None] * D
    if problem.has_outlier_column:
        cost = np.column_stack([cost, w * problem.outlier_penalty])
    return cost


def _check_coverage(problem: Problem) -> int:
    n_cols = problem.k + (1 if problem.has_outlier_column else 0)
    worst = int(problem.coverages.max(initial=1))
    if worst > n_cols:
        raise QExceedsK(f"coverage q={worst} exceeds the {n_cols} available columns")
    return n_cols


def _greedy_rows(D: np.ndarray, problem: Problem, rows: np.ndarray, y: np.ndarray) -> None:
    """Fill rows of y with each point's q cheapest columns.

    Selection is by raw distance (outlier column at lambda_o), ties to the
    lowest center index; a boundary distance d == lambda_o stays assigned
    because the outlier column sorts last.
    """
    k = problem.k
    if problem.has_outlier_column:
        cols = np.column_stack([D, np.full(D.shape[0], problem.outlier_penalty)])
    else:
        cols = D
    q = problem.coverages
    for i in rows:
        order = np.argsort(cols[i], kind="stable")
        y[i, order[: q[i]]] = 1.0


def allocate_uncapacitated(problem: Problem, centers, *, distances=None) -> Assignment:
    n_cols = _check_coverage(problem)
    D = metrics.distances_to_centers(problem, centers) if distances is None else distances
    y = np.zeros((problem.n, n_cols))
    if problem.coverages.max(initial=1) == 1 and problem.coverages.min(initial=1) == 1:
        if problem.has_outlier_column:
            cols = np.column_stack([D, np.full(problem.n, problem.outlier_penalty)])
        else:
            cols = D
        y[np.arange(problem.n), np.argmin(cols, axis=1)] = 1.0
    else:
        _greedy_rows(D, problem, np.arange(problem.n), y)
    return Assignment(y=y, membership=problem.membership, has_outlier=problem.has_outlier_column)


def _aggregate_certificate(problem: Problem) -> None:
    lo, hi = problem.capacity
    a = problem.capacity_coeffs
    q = problem.coverages
    demand = float(math.fsum(a * q))
    outlier_slack = float(math.fsum(a)) if problem.has_outlier_column else 0.0
    tol = 1e-9 * max(1.0, demand)
    if demand - outlier_slack > problem.k * hi + tol:
        raise Infeasible(
            f"total capacity-weighted demand {demand - outlier_slack:g} (net of the outlier column) "
            f"exceeds the combined upper limits k*U = {problem.k * hi:g}"
        )
    if problem.k * lo > demand + tol:
        raise Infeasible(
            f"combined lower limits k*L = {problem.k * lo:g} exceed the total "
            f"capacity-weighted demand {demand:g}"
        )


def _highs(problem: Problem, D: np.ndarray, cost: np.ndarray, *, integral: bool = False,
           time_limit: float | None = None):
    """Solve the allocation over the points with a_i > 0 with HiGHS.

    Variables are y_ij for those points over every column; coverage rows fix
    sum_j y_ij = q_i and capacity rows keep sum_i a_i y_ij in [L, U] for each
    real center.  Returns the (n, columns) membership matrix and scipy's
    result: rows with a_i = 0 hold their greedy choice, the other rows hold
    ``res.x`` (zeros when HiGHS returned no point).
    """
    lo, hi = problem.capacity
    k = problem.k
    a = problem.capacity_coeffs
    pos = np.flatnonzero(a > 0)
    m, n_cols = pos.size, cost.shape[1]
    var = np.arange(m * n_cols).reshape(m, n_cols)
    rows = np.concatenate([np.repeat(np.arange(m), n_cols), m + np.tile(np.arange(k), m)])
    cols = np.concatenate([var.ravel(), var[:, :k].ravel()])
    vals = np.concatenate([np.ones(m * n_cols), np.repeat(a[pos], k)])
    A = sparse.csr_array((vals, (rows, cols)), shape=(m + k, m * n_cols))
    q = problem.coverages[pos]
    constraint = LinearConstraint(A, np.concatenate([q, np.full(k, lo)]), np.concatenate([q, np.full(k, hi)]))
    options: dict = {}
    if integral:
        # With presolve on, HiGHS (scipy 1.17) ends some infeasible MIPs in
        # "Solve error" and prints to stdout; with it off it proves them infeasible.
        options = {"mip_rel_gap": 0.0, "presolve": False}
        if time_limit is not None:
            options["time_limit"] = time_limit
    res = milp(cost[pos].ravel(), constraints=constraint, integrality=1 if integral else 0,
               bounds=Bounds(0.0, 1.0), options=options)

    y = np.zeros((problem.n, n_cols))
    zero = np.flatnonzero(a == 0)
    if zero.size:
        _greedy_rows(D, problem, zero, y)
    if res.x is not None:
        # HiGHS may return -0.0 or values a rounding error outside [0, 1]
        x = np.round(res.x) if integral else np.clip(res.x, 0.0, 1.0)
        y[pos] = x.reshape(m, n_cols) + 0.0
    return y, res


def _objective(problem: Problem, cost: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((cost * y)[problem.id_order]))


def _solve_lp(problem: Problem, D: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact fractional optimum and its objective; raises Infeasible when there is none."""
    y, res = _highs(problem, D, cost)
    if res.status == 2:
        lo, hi = problem.capacity
        raise Infeasible(f"the capacity window admits no fractional assignment (L={lo:g}, U={hi:g})")
    if res.status != 0:
        raise CapclustError(f"HiGHS did not solve the allocation LP: {res.message}")
    return y, _objective(problem, cost, y)


def allocate_fractional(problem: Problem, centers, *, distances=None) -> Assignment:
    if problem.capacity is None:
        return allocate_uncapacitated(problem, centers, distances=distances)
    _check_coverage(problem)
    _aggregate_certificate(problem)
    if not (problem.capacity_coeffs > 0).any():
        return allocate_uncapacitated(problem, centers, distances=distances)
    D = metrics.distances_to_centers(problem, centers) if distances is None else distances
    y, _ = _solve_lp(problem, D, _column_costs(problem, D))
    return Assignment(y=y, membership=FRACTIONAL, has_outlier=problem.has_outlier_column)


def _verify_hard(problem: Problem, y: np.ndarray) -> bool:
    q = problem.coverages
    if not np.array_equal(y.sum(axis=1), q.astype(float)):
        return False
    lo, hi = problem.capacity
    slack = 1e-9 * max(1.0, abs(hi) if math.isfinite(hi) else 1.0)
    k = problem.k
    a = problem.capacity_coeffs
    for j in range(k):
        load = math.fsum(a[i] * y[i, j] for i in range(problem.n) if y[i, j])
        if load < lo - slack or load > hi + slack:
            return False
    return True


def _greedy_incumbent(problem: Problem, D: np.ndarray) -> np.ndarray | None:
    """Feasible binary assignment by greedy fill plus lower-bound repair.

    Only used when HiGHS reaches the time budget without a feasible point;
    returning None is always safe.
    """
    lo, hi = problem.capacity
    k = problem.k
    has_outlier = problem.has_outlier_column
    n_cols = k + (1 if has_outlier else 0)
    a = problem.capacity_coeffs
    q = problem.coverages
    cols_cost = _column_costs(problem, D)
    y = np.zeros((problem.n, n_cols))
    zero = np.flatnonzero(a == 0)
    if zero.size:
        _greedy_rows(D, problem, zero, y)
    loads = np.zeros(k)
    order = sorted(np.flatnonzero(a > 0), key=lambda i: (-a[i], i))
    for i in order:
        open_cols = np.argsort(cols_cost[i], kind="stable")
        taken = 0
        for j in open_cols:
            if taken == q[i]:
                break
            if j == k and has_outlier:
                y[i, j] = 1.0
                taken += 1
            elif j < k and loads[j] + a[i] <= hi + 1e-9:
                y[i, j] = 1.0
                loads[j] += a[i]
                taken += 1
        if taken < q[i]:
            return None
    # repair centers below the lower limit by pulling affordable points over
    for j in range(k):
        guard = 0
        while loads[j] < lo - 1e-9 and guard < 4 * problem.n:
            guard += 1
            best = None
            for i in np.flatnonzero(a > 0):
                if y[i, j] == 1.0 or loads[j] + a[i] > hi + 1e-9:
                    continue
                for src in range(n_cols):
                    if y[i, src] != 1.0 or src == j:
                        continue
                    if src < k and loads[src] - a[i] < lo - 1e-9:
                        continue
                    delta = cols_cost[i, j] - cols_cost[i, src]
                    if best is None or delta < best[0]:
                        best = (delta, i, src)
            if best is None:
                return None
            _delta, i, src = best
            y[i, src] = 0.0
            y[i, j] = 1.0
            loads[j] += a[i]
            if src < k:
                loads[src] -= a[i]
    if not _verify_hard(problem, y):
        return None
    return y


def allocate_hard(problem: Problem, centers, time_budget: float | None = None, *, distances=None) -> Assignment:
    if problem.capacity is None:
        return allocate_uncapacitated(problem, centers, distances=distances)
    _check_coverage(problem)
    _aggregate_certificate(problem)
    lo, hi = problem.capacity
    a = problem.capacity_coeffs
    q = problem.coverages
    for i in range(problem.n):
        real_needed = q[i] - (1 if problem.has_outlier_column else 0)
        if a[i] > hi and real_needed >= 1:
            raise Infeasible(
                f"point {problem.points[i].id}: capacity coefficient a={a[i]:g} exceeds "
                f"the upper limit U={hi:g}, so no single center can hold it"
            )
    if np.allclose(a, np.round(a), atol=1e-12):
        # integral coefficients make every binary load an integer, so the
        # window effectively shrinks to [ceil(L), floor(U)]
        lo_int, hi_int = math.ceil(lo - 1e-9), math.floor(hi + 1e-9) if math.isfinite(hi) else hi
        demand = float(math.fsum(a * q))
        outlier_slack = float(math.fsum(a)) if problem.has_outlier_column else 0.0
        if demand - outlier_slack > problem.k * hi_int + 1e-9:
            raise Infeasible(
                f"integral loads can reach at most k*floor(U) = {problem.k * hi_int:g}, "
                f"below the demand {demand - outlier_slack:g} that must enter real centers"
            )
        if problem.k * lo_int > demand + 1e-9:
            raise Infeasible(
                f"integral loads need at least k*ceil(L) = {problem.k * lo_int:g}, "
                f"above the total capacity-weighted demand {demand:g}"
            )

    if not (a > 0).any():
        return allocate_uncapacitated(problem, centers, distances=distances)

    D = metrics.distances_to_centers(problem, centers) if distances is None else distances
    diagnostics: dict = {"nodes": 0}

    positive = a[a > 0]
    c = positive[0]
    equal_coeffs = bool(np.all(positive == c))
    diagnostics["integral_guarantee"] = bool(
        equal_coeffs
        and abs(lo / c - round(lo / c)) < 1e-9
        and (not math.isfinite(hi) or abs(hi / c - round(hi / c)) < 1e-9)
    )

    cost = _column_costs(problem, D)
    y0, bound0 = _solve_lp(problem, D, cost)
    if np.all(np.abs(y0 - np.round(y0)) <= 1e-7):
        y_round = np.round(y0)
        if _verify_hard(problem, y_round):
            diagnostics["fastpath"] = "lp_integral"
            diagnostics["nodes"] = 1
            return Assignment(
                y=y_round, membership=HARD, has_outlier=problem.has_outlier_column,
                diagnostics=diagnostics,
            )

    y, res = _highs(problem, D, cost, integral=True, time_limit=time_budget)
    diagnostics["nodes"] = int(res.mip_node_count or 0)
    if res.status == 2:
        raise Infeasible(
            "the capacity window admits no binary assignment "
            f"(L={lo:g}, U={hi:g}; capacity coefficients cannot be split)"
        )
    if res.status == 1 and res.x is not None:
        diagnostics["optimality_gap"] = float(res.mip_gap)
    elif res.status == 1:
        y = _greedy_incumbent(problem, D)
        if y is None:
            raise NoIncumbentWithinBudget(f"no feasible hard assignment within {time_budget:g}s")
        incumbent = _objective(problem, cost, y)
        diagnostics["optimality_gap"] = (incumbent - bound0) / max(1.0, abs(incumbent))
    elif res.status != 0:
        raise CapclustError(f"HiGHS did not solve the hard allocation: {res.message}")
    return Assignment(
        y=y, membership=HARD, has_outlier=problem.has_outlier_column, diagnostics=diagnostics,
    )
