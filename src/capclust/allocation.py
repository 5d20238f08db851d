"""Allocation step: minimize the objective over memberships with centers fixed.

Three regimes:

* no capacity window: each point independently takes its cheapest columns
  (the outlier column costs lambda_o per unit of effective weight), which is
  exact and identical for hard and fractional membership;
* capacity window + fractional membership: an exact linear program, solved
  as min-cost flow on scaled variables z_ij = a_i * y_ij;
* capacity window + hard membership: best-first branch and bound on the LP
  relaxation, branching on the most fractional membership.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from . import metrics
from .errors import Infeasible, NoIncumbentWithinBudget, QExceedsK
from .mincostflow import FlowNetwork
from .model import FRACTIONAL, HARD, Assignment, Problem


@dataclass(order=True)
class BnBNode:
    """A branch-and-bound node: a partial 0/1 fixing plus its optimistic bound."""

    bound: float
    counter: int
    fixings: dict = field(compare=False)
    depth: int = field(compare=False, default=0)


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


def _flow_certificate(problem: Problem, unmet: list[tuple[int, float]], pos_nodes: int) -> str:
    parts = []
    for node, residual in unmet:
        if node < pos_nodes:
            parts.append(f"point node {node}: {residual:g} units of demand unplaced")
        else:
            parts.append(f"center {node - pos_nodes}: lower load bound short by {residual:g}")
    return "; ".join(parts) if parts else "no feasible flow"


def _solve_lp(problem: Problem, D: np.ndarray, fixings: dict) -> tuple[np.ndarray, float] | str:
    """Exact LP optimum under 0/1 fixings; returns (y, objective) or a certificate."""
    lo, hi = problem.capacity
    k = problem.k
    has_outlier = problem.has_outlier_column
    n_cols = k + (1 if has_outlier else 0)
    a = problem.capacity_coeffs
    q = problem.coverages

    y = np.zeros((problem.n, n_cols))
    pos = np.flatnonzero(a > 0)
    zero = np.flatnonzero(a == 0)
    if zero.size:
        _greedy_rows(D, problem, zero, y)

    cols_cost = _column_costs(problem, D)

    fixed_per_point: dict[int, int] = {}
    for (i, j), val in fixings.items():
        if val == 1:
            fixed_per_point[i] = fixed_per_point.get(i, 0) + 1
    for i in set(i for (i, _j) in fixings):
        open_cols = sum(
            1 for j in range(n_cols) if fixings.get((i, j), None) != 0
        )
        if fixed_per_point.get(i, 0) > q[i] or open_cols < q[i]:
            return f"point {problem.points[i].id}: fixings leave no room for coverage q={q[i]}"

    idx_of = {int(p): t for t, p in enumerate(pos)}
    n_pos = pos.size
    outlier_node = n_pos + k if has_outlier else -1
    sink = n_pos + k + (1 if has_outlier else 0)
    net = FlowNetwork(sink + 1)

    constant = 0.0
    arc_map: dict[int, tuple[int, int]] = {}
    for t, i in enumerate(pos):
        supply = a[i] * q[i]
        for j in range(n_cols):
            fix = fixings.get((int(i), j))
            if fix == 0:
                continue
            target = outlier_node if j == k else n_pos + j
            unit = cols_cost[i, j] / a[i]
            if fix == 1:
                supply -= a[i]
                net.add_supply(target, a[i])
                constant += cols_cost[i, j]
                y[i, j] = 1.0
                continue
            arc = net.add_arc(t, target, 0.0, a[i], unit)
            arc_map[arc] = (int(i), j)
        if supply < -1e-12:
            return f"point {problem.points[i].id}: fixings exceed coverage"
        net.add_supply(t, supply)
    for j in range(k):
        net.add_arc(n_pos + j, sink, lo, hi, 0.0)
    if has_outlier:
        net.add_arc(outlier_node, sink, 0.0, math.inf, 0.0)
    net.add_supply(sink, -float(math.fsum(net.balances[:sink])))

    result = net.solve()
    if not result.feasible:
        return _flow_certificate(problem, result.unmet, n_pos)
    for arc, (i, j) in arc_map.items():
        y[i, j] = min(1.0, max(0.0, result.flows[arc] / a[i]))
    objective = float(np.sum((cols_cost * y)[problem.id_order]))
    return y, objective


def allocate_fractional(problem: Problem, centers, *, distances=None) -> Assignment:
    if problem.capacity is None:
        return allocate_uncapacitated(problem, centers, distances=distances)
    _check_coverage(problem)
    _aggregate_certificate(problem)
    D = metrics.distances_to_centers(problem, centers) if distances is None else distances
    solved = _solve_lp(problem, D, {})
    if isinstance(solved, str):
        raise Infeasible(solved)
    y, _ = solved
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

    Only used to prime branch and bound with an incumbent; returning None
    is always safe.
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

    D = metrics.distances_to_centers(problem, centers) if distances is None else distances
    diagnostics: dict = {"nodes": 0}

    positive = a[a > 0]
    if positive.size:
        c = positive[0]
        equal_coeffs = bool(np.all(positive == c))
        divisible = bool(
            equal_coeffs
            and abs(lo / c - round(lo / c)) < 1e-9
            and (not math.isfinite(hi) or abs(hi / c - round(hi / c)) < 1e-9)
        )
        diagnostics["integral_guarantee"] = divisible
    else:
        diagnostics["integral_guarantee"] = True

    start = time.monotonic()
    root = _solve_lp(problem, D, {})
    if isinstance(root, str):
        raise Infeasible(root)

    def integral(y: np.ndarray) -> bool:
        return bool(np.all(np.abs(y - np.round(y)) <= 1e-7))

    incumbent_y = None
    incumbent_obj = math.inf
    best_bound = root[1]

    y0, bound0 = root
    if integral(y0):
        y_round = np.round(y0)
        if _verify_hard(problem, y_round):
            diagnostics["fastpath"] = "lp_integral"
            diagnostics["nodes"] = 1
            return Assignment(
                y=y_round, membership=HARD, has_outlier=problem.has_outlier_column,
                diagnostics=diagnostics,
            )

    primed = _greedy_incumbent(problem, D)
    if primed is not None:
        incumbent_y = primed
        incumbent_obj = float(np.sum((_column_costs(problem, D) * primed)[problem.id_order]))

    counter = 0
    heap: list[BnBNode] = [BnBNode(bound0, counter, {})]
    solved_cache: dict[int, tuple[np.ndarray, float]] = {counter: root}

    while heap:
        node = heappop(heap)
        if node.bound >= incumbent_obj - 1e-10 * (1.0 + abs(incumbent_obj)):
            break  # best-first: nothing left can beat the incumbent
        best_bound = node.bound
        if time_budget is not None and time.monotonic() - start > time_budget:
            if incumbent_y is None:
                raise NoIncumbentWithinBudget(
                    f"no feasible hard assignment within {time_budget:g}s"
                )
            diagnostics["optimality_gap"] = (incumbent_obj - node.bound) / max(1.0, abs(incumbent_obj))
            break

        cached = solved_cache.pop(node.counter, None)
        if cached is None:
            solved = _solve_lp(problem, D, node.fixings)
            if isinstance(solved, str):
                continue
        else:
            solved = cached
        y, bound = solved
        diagnostics["nodes"] += 1
        if bound >= incumbent_obj - 1e-10 * (1.0 + abs(incumbent_obj)):
            continue

        if integral(y):
            y_round = np.round(y)
            if _verify_hard(problem, y_round) and bound < incumbent_obj:
                incumbent_y, incumbent_obj = y_round, bound
            continue

        frac = np.minimum(y, 1.0 - y)
        frac[problem.capacity_coeffs == 0, :] = 0.0
        i, j = np.unravel_index(int(np.argmax(frac)), frac.shape)
        for val in (0, 1):
            counter += 1
            child = dict(node.fixings)
            child[(int(i), int(j))] = val
            heappush(heap, BnBNode(bound, counter, child, node.depth + 1))

    if incumbent_y is None:
        raise Infeasible(
            "the capacity window admits no binary assignment "
            f"(L={lo:g}, U={hi:g}; capacity coefficients cannot be split)"
        )
    return Assignment(
        y=incumbent_y, membership=HARD, has_outlier=problem.has_outlier_column,
        diagnostics=diagnostics,
    )
