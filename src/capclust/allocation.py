"""Allocation step: minimize the objective over memberships with centers fixed.

``allocate`` is the one entry point, and the problem picks its regime:

* no capacity window: each point independently takes its cheapest columns
  (the outlier column costs lambda_o per unit of effective weight), which
  is exact under either membership;
* capacity window + fractional membership: an exact linear program over the
  memberships y_ij of every point, solved by HiGHS.  A point with capacity
  coefficient a_i = 0 is a coverage row whose columns enter no capacity
  row.  The rows depend on neither the centers nor the restart, so a solve
  builds its model once (``lp_model``), which also runs the checks that
  depend on the problem alone.  Each descent restarts it
  (``_AllocationLP.restart``), and its first LP starts from the basis of
  the nearest assignment, which is dual feasible for any costs; HiGHS then
  re-solves the LP from the last optimal basis for each new set of column
  costs (a warm start).  Among tied optima the start basis, not HiGHS
  presolve, decides (the ``milp`` fallback leaves every tie to HiGHS):
  where the window does not bind, every point keeps its nearest columns,
  ties to the lowest index.  Where it binds, HiGHS picks among tied optima;
  an a_i = 0 point, whose reduced costs are its costs less a constant,
  takes cheapest columns, and one with w'_i = 0 as well any center;
* capacity window + hard membership: the same program with binary y_ij, a
  mixed-integer program solved by HiGHS through ``scipy.optimize.milp`` to a
  zero optimality gap, after a fast path through the same LP relaxation
  (ties inside the MIP stay with HiGHS).  When a time budget stops the
  search, the step returns the cheapest of HiGHS's incumbent, a greedy one
  and the model's last assignment, so a budgeted descent never rises and
  never loses a restart after its first allocation.

The LP relaxation of a hard problem is
``allocate(dataclasses.replace(problem, membership="fractional"), ...)``.

What a capacitated solve imports, and when: building the first LP model
loads scipy's private HiGHS extension ``scipy.optimize._highspy._core``
alone, without executing ``scipy.optimize`` (``_find_binding``); the model
holds it and builds its matrix with numpy.  ``run_milp`` imports
``scipy.optimize`` and ``scipy.sparse`` where it runs, so they load on the
first call that runs ``milp``: a hard step whose root LP is fractional, or
any LP when the extension cannot be found.  An uncapacitated solve imports
neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from functools import cached_property

import numpy as np

from . import metrics
from .errors import CapclustError, Infeasible, NoIncumbentWithinBudget, QExceedsK
from .model import FRACTIONAL, HARD, Assignment, Problem

# scipy's private HiGHS binding; no other module of capclust reaches it
_BINDING = "scipy.optimize._highspy._core"


def _find_binding():
    """The HiGHS extension module, loaded on its own; None when a scipy upgrade moved it.

    ``find_spec`` of ``scipy.optimize`` imports only ``scipy`` and does not
    execute ``scipy.optimize``.  The module goes into ``sys.modules`` under
    its own name, so a later ``import scipy.optimize`` uses it and the
    extension is initialised once.
    """
    module = sys.modules.get(_BINDING)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy.optimize")
    for name in ("scipy.optimize._highspy", _BINDING):  # each in the directory of the package before it
        if spec is None or spec.submodule_search_locations is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, spec.submodule_search_locations)
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_BINDING] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(_BINDING, None)
        return None
    return module


def allocate(problem: Problem, centers, time_budget: float | None = None, *, distances=None,
             model=None) -> Assignment:
    """Optimal memberships for fixed centers, in the regime ``problem`` states.

    ``model`` is ``lp_model(problem)`` when the caller re-solves the same
    problem for many center sets; otherwise a capacitated call builds a
    one-shot model.  ``distances`` is the (n, k) matrix of raw distances to
    ``centers`` when the caller already holds it; otherwise it is computed
    here.  Without a model every point takes its cheapest columns;
    otherwise ``problem.membership`` picks the fractional LP or the hard
    step, which reads ``time_budget``.
    """
    model = lp_model(problem) if model is None else model
    D = metrics.distances_to_centers(problem, centers) if distances is None else distances
    if model is None:
        return _allocate_uncapacitated(problem, D)
    if problem.membership == FRACTIONAL:
        y = model.solve(_column_costs(problem, D), D).reshape(problem.n, -1)
        return Assignment(y=y, has_outlier=problem.has_outlier_column)
    return _allocate_hard(problem, D, model, time_budget)


def _column_costs(problem: Problem, D: np.ndarray) -> np.ndarray:
    """Per-point column costs (n, k[+1]) in w'-units from raw distances D."""
    w = problem.effective_weights
    cost = w[:, None] * D
    if problem.has_outlier_column:
        cost = np.column_stack([cost, w * problem.outlier_penalty])
    return cost


def _check_coverage(problem: Problem) -> int:
    """The largest coverage q_i; raises QExceedsK when it exceeds the columns."""
    n_cols = problem.k + (1 if problem.has_outlier_column else 0)
    worst = int(problem.coverages.max(initial=1))
    if worst > n_cols:
        raise QExceedsK(f"coverage q={worst} exceeds the {n_cols} available columns")
    return worst


def _column_order(D: np.ndarray, problem: Problem, rows: np.ndarray) -> np.ndarray:
    """The columns of each of ``rows``, cheapest first: (rows.size, columns) indices.

    Order is by raw distance (outlier column at lambda_o), ties to the
    lowest column index, so a boundary distance d == lambda_o sorts before
    the outlier column.  Column costs are w'_i times these values, so the
    order is also by cost, for w'_i = 0 too.
    """
    cols = D[rows]
    if problem.has_outlier_column:
        cols = np.column_stack([cols, np.full(rows.size, problem.outlier_penalty)])
    return np.argsort(cols, axis=1, kind="stable")


def _greedy_rows(D: np.ndarray, problem: Problem, rows: np.ndarray, y: np.ndarray) -> None:
    """Fill rows of y with each point's q cheapest columns (``_column_order``)."""
    order = _column_order(D, problem, rows)
    take = np.arange(order.shape[1]) < problem.coverages[rows][:, None]
    y[np.broadcast_to(rows[:, None], order.shape)[take], order[take]] = 1.0


def _nearest_assignment(problem: Problem, nearest: np.ndarray, best: np.ndarray) -> Assignment:
    """The assignment of every point (each q_i = 1) to its nearest center, or to the outlier column.

    ``nearest`` is each point's nearest center (ties to the lowest index)
    and ``best`` its distance to it, read only with an outlier column.
    Every row is one-hot under either membership, so the assignment carries
    the labels and builds its y only when read.
    """
    if problem.has_outlier_column:
        # The outlier column sorts last, so a tie d == lambda_o stays with the center.
        nearest = np.where(best > problem.outlier_penalty, problem.k, nearest)
    return Assignment(y=None, has_outlier=problem.has_outlier_column, labels=nearest,
                      columns=problem.k + (1 if problem.has_outlier_column else 0))


def _allocates_nearest_labels(problem: Problem) -> bool:
    """Whether ``allocate`` gives ``_nearest_assignment`` with labels for any centers.

    It does without a capacity window and with every q_i = 1, under either membership.
    """
    return problem.capacity is None and problem.coverages.max() == 1


def _allocate_uncapacitated(problem: Problem, D: np.ndarray) -> Assignment:
    """Every point's q_i cheapest columns (``_column_order``); raises QExceedsK when q_i exceeds them."""
    if _check_coverage(problem) == 1:  # validation keeps every q_i >= 1, so every q_i is 1
        nearest = np.argmin(D, axis=1)
        best = D[np.arange(problem.n), nearest] if problem.has_outlier_column else None
        return _nearest_assignment(problem, nearest, best)
    y = np.zeros((problem.n, problem.k + (1 if problem.has_outlier_column else 0)))
    _greedy_rows(D, problem, np.arange(problem.n), y)
    return Assignment(y=y, has_outlier=problem.has_outlier_column)


def _aggregate_certificate(problem: Problem, lo: float, hi: float, names: tuple[str, str] = ("L", "U")) -> None:
    """Raise Infeasible when the loads of all k centers cannot meet the demand within [lo, hi]."""
    a = problem.capacity_coeffs
    demand = float(math.fsum(a * problem.coverages))
    outlier_slack = float(math.fsum(a)) if problem.has_outlier_column else 0.0
    tol = 1e-9 * max(1.0, demand)
    if demand - outlier_slack > problem.k * hi + tol:
        raise Infeasible(
            f"total capacity-weighted demand {demand - outlier_slack:g} (net of the outlier column) "
            f"exceeds the combined upper limits k*{names[1]} = {problem.k * hi:g}"
        )
    if problem.k * lo > demand + tol:
        raise Infeasible(
            f"combined lower limits k*{names[0]} = {problem.k * lo:g} exceed the total "
            f"capacity-weighted demand {demand:g}"
        )


def _lp_rows(problem: Problem) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Coverage and capacity rows over y_ij of every point, as HiGHS takes them.

    Variables are y_ij over every point and column, row-major; coverage
    rows fix sum_j y_ij = q_i and capacity rows keep sum_i a_i y_ij in
    [L, U] for each real center.  Returns the column-wise matrix (start,
    index, value), where column (i, j) holds 1 in coverage row i and, for a
    real center j, a_i in capacity row j (an explicit 0 when a_i = 0), and
    the row lower and upper bounds.
    """
    lo, hi = problem.capacity
    n, k = problem.n, problem.k
    per_point = 2 * k + int(problem.has_outlier_column)  # entries of one point's columns
    index = np.empty((n, per_point), dtype=np.intp)
    value = np.ones((n, per_point))
    index[:, 0:2 * k:2] = index[:, 2 * k:] = np.arange(n)[:, None]
    index[:, 1:2 * k:2] = n + np.arange(k)
    value[:, 1:2 * k:2] = problem.capacity_coeffs[:, None]
    first = np.arange(0, per_point, 2)  # where each of a point's columns starts in its run of entries
    start = np.append((per_point * np.arange(n)[:, None] + first).ravel(), n * per_point)
    return ((start, index.ravel(), value.ravel()),
            np.concatenate([problem.coverages, np.full(k, lo)]), np.concatenate([problem.coverages, np.full(k, hi)]))


class _AllocationLP:
    """The capacitated allocation of one problem, in its membership regime.

    The constructor runs the checks that depend on the problem alone.  The
    LP rows depend on neither the centers nor the restart, so between
    solves only the costs change and the last optimal basis stays primal
    feasible: HiGHS gets the model once per solve and re-solves each new
    cost vector from that basis.  When HiGHS holds no such basis (a new
    model, the first LP after ``restart``, or after a solve that did not
    end optimal), the LP starts from the basis of the nearest assignment
    instead (``_start_basis``), so a restarted model solves exactly as a
    new one.  ``hs`` is the private binding (``_find_binding``); without
    it every solve goes through ``milp`` cold, as every MIP does
    (``run_milp``).  ``matrix``, ``row_lower`` and ``row_upper`` hold the
    LP rows over every point (``_lp_rows``); ``last_hard`` holds the last
    hard assignment made in this descent.
    """

    def __init__(self, problem: Problem):
        _check_coverage(problem)
        lo, hi = problem.capacity
        _aggregate_certificate(problem, lo, hi)
        a = problem.capacity_coeffs
        if problem.membership == HARD:
            real_needed = problem.coverages - (1 if problem.has_outlier_column else 0)
            too_big = np.flatnonzero((a > hi) & (real_needed >= 1))
            if too_big.size:
                i = too_big[0]
                raise Infeasible(
                    f"point {problem.ids[i]}: capacity coefficient a={a[i]:g} exceeds "
                    f"the upper limit U={hi:g}, so no single center can hold it"
                )
            if np.allclose(a, np.round(a), atol=1e-12):
                # integral coefficients make every binary load an integer, so the
                # window effectively shrinks to [ceil(L), floor(U)]
                _aggregate_certificate(problem, math.ceil(lo - 1e-9),
                                       math.floor(hi + 1e-9) if math.isfinite(hi) else hi, ("ceil(L)", "floor(U)"))
        self.problem = problem
        self.last_hard = None
        self._warm = False  # HiGHS holds the optimal basis of the last solve
        self.hs = _find_binding()
        self.matrix, self.row_lower, self.row_upper = _lp_rows(problem)
        self._index = np.arange(self.matrix[0].size - 1, dtype=np.int32)
        self._highs = None if self.hs is None else self._pass_model()

    def _pass_model(self):
        hs = self.hs
        start, index, value = self.matrix
        lp = hs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = self._index.size
        lp.num_row_ = lp.a_matrix_.num_row_ = self.row_lower.size
        lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_cost_ = np.zeros(self._index.size)
        lp.col_lower_ = np.zeros(self._index.size)
        lp.col_upper_ = np.ones(self._index.size)
        lp.row_lower_ = self.row_lower
        lp.row_upper_ = self.row_upper
        highs = hs._Highs()
        if highs.setOptionValue("output_flag", False) != hs.HighsStatus.kOk:
            raise CapclustError("HiGHS rejected the option output_flag=False")
        if highs.passModel(lp) == hs.HighsStatus.kError:
            raise CapclustError("HiGHS rejected the allocation LP")
        return highs

    @cached_property
    def _constraint(self):
        """The rows as scipy's ``LinearConstraint`` over a ``csc_array`` of the same arrays (``run_milp``)."""
        from scipy.optimize import LinearConstraint
        from scipy.sparse import csc_array

        start, index, value = self.matrix
        A = csc_array((value, index, start), shape=(self.row_lower.size, self._index.size))
        return LinearConstraint(A, self.row_lower, self.row_upper)

    def run_milp(self, c: np.ndarray, integrality: int, options: dict | None = None):
        """scipy's ``milp`` over the rows with 0 <= y <= 1 and costs ``c``; imported on the first call."""
        from scipy.optimize import Bounds, milp

        return milp(c, constraints=self._constraint, integrality=integrality, bounds=Bounds(0.0, 1.0), options=options)

    def restart(self) -> None:
        """Begin a descent: forget the last hard assignment and clear HiGHS's solver data.

        The next LP then starts from the nearest-assignment basis exactly as
        on a new model; keeping HiGHS's other solver data would not.
        """
        self.last_hard = None
        self._warm = False
        if self._highs is not None and self._highs.clearSolver() == self.hs.HighsStatus.kError:
            raise CapclustError("HiGHS could not clear the allocation LP's solver data")

    def _start_basis(self, D: np.ndarray):
        """The basis of the nearest assignment: each point holds its q_i cheapest columns.

        The q_i-th cheapest column is basic, the cheaper ones sit at their
        upper bound 1 and the rest at 0; coverage rows are at their bound and
        capacity rows basic.  The basis matrix is triangular, and every
        reduced cost has the right sign for any costs that keep the column
        order (``_column_order``), so the basis is dual feasible and the dual
        simplex only repairs the loads outside the window.  With a valid
        basis HiGHS also skips presolve, so the column order decides ties.
        """
        problem = self.problem
        order = _column_order(D, problem, np.arange(problem.n))
        # rank r < q-1 -> 2 (upper), r == q-1 -> 1 (basic), r > q-1 -> 0 (lower)
        by_rank = np.sign(problem.coverages[:, None] - 1 - np.arange(order.shape[1])) + 1
        codes = np.empty_like(order)
        np.put_along_axis(codes, order, by_rank, axis=1)
        status = self.hs.HighsBasisStatus
        table = np.array([status.kLower, status.kBasic, status.kUpper], dtype=object)
        basis = self.hs.HighsBasis()
        basis.col_status = table[codes.ravel()].tolist()
        basis.row_status = [status.kLower] * problem.n + [status.kBasic] * problem.k
        basis.valid = True
        return basis

    def solve(self, cost: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Optimal y of every point, flat and row-major; raises Infeasible when there is none.

        ``cost`` holds the (n, columns) column costs and ``D`` the raw
        distances they come from, whose column order gives the start basis.
        """
        c = cost.ravel()
        highs = self._highs
        if highs is None:
            res = self.run_milp(c, integrality=0)
            optimal, infeasible, message, x = res.status == 0, res.status == 2, res.message, res.x
        else:
            hs = self.hs
            if highs.changeColsCost(c.size, self._index, c) == hs.HighsStatus.kError:
                raise CapclustError("HiGHS rejected the allocation LP's column costs")
            if not self._warm and highs.setBasis(self._start_basis(D)) == hs.HighsStatus.kError:
                raise CapclustError("HiGHS rejected the allocation LP's start basis")
            ran = highs.run() != hs.HighsStatus.kError
            status = highs.getModelStatus()
            optimal = ran and status == hs.HighsModelStatus.kOptimal
            infeasible = status == hs.HighsModelStatus.kInfeasible
            message = highs.modelStatusToString(status)
            x = np.array(highs.getSolution().col_value) if optimal else None
            self._warm = optimal
        if infeasible:
            lo, hi = self.problem.capacity
            raise Infeasible(f"the capacity window admits no fractional assignment (L={lo:g}, U={hi:g})")
        if not optimal:
            raise CapclustError(f"HiGHS did not solve the allocation LP: {message}")
        # HiGHS may return -0.0 or values a rounding error outside [0, 1]
        return np.clip(x, 0.0, 1.0) + 0.0


def lp_model(problem: Problem) -> _AllocationLP | None:
    """The model of ``problem`` for ``allocate(..., model=)``; None without a capacity window.

    Building it runs, once, the checks that allocation calls would raise on.
    ``solve`` builds one per solve and every descent restarts it.
    """
    return None if problem.capacity is None else _AllocationLP(problem)


def _objective(problem: Problem, cost: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((cost * y)[problem.id_order]))


def _verify_hard(problem: Problem, y: np.ndarray) -> bool:
    q = problem.coverages
    if not np.array_equal(y.sum(axis=1), q.astype(float)):
        return False
    lo, hi = problem.capacity
    slack = 1e-9 * max(1.0, abs(hi) if math.isfinite(hi) else 1.0)
    a = problem.capacity_coeffs
    for j in range(problem.k):
        load = math.fsum(a[y[:, j] == 1])
        if load < lo - slack or load > hi + slack:
            return False
    return True


def _greedy_incumbent(problem: Problem, D: np.ndarray) -> np.ndarray | None:
    """Feasible binary assignment by greedy fill plus lower-bound repair.

    Only used when HiGHS reaches the time budget, against its incumbent and
    the model's last assignment; returning None is always safe.
    """
    lo, hi = problem.capacity
    k = problem.k
    has_outlier = problem.has_outlier_column
    n_cols = k + (1 if has_outlier else 0)
    a = problem.capacity_coeffs
    q = problem.coverages
    cols_cost = _column_costs(problem, D)
    y = np.zeros((problem.n, n_cols))
    _greedy_rows(D, problem, np.flatnonzero(a == 0), y)
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
    # repair centers below the lower limit by pulling affordable points over,
    # each time the cheapest move (point, source column), ties to the first
    pos = np.flatnonzero(a > 0)
    a_pos, cost_pos = a[pos], cols_cost[pos]
    for j in range(k):
        guard = 0
        while loads[j] < lo - 1e-9 and guard < 4 * problem.n:
            guard += 1
            held = y[pos] == 1.0
            source = held.copy()
            source[:, j] = False
            source[:, :k] &= loads - a_pos[:, None] >= lo - 1e-9
            source &= (~held[:, j] & (loads[j] + a_pos <= hi + 1e-9))[:, None]
            if not source.any():
                return None
            delta = np.where(source, cost_pos[:, j, None] - cost_pos, np.inf)
            r, src = np.unravel_index(np.argmin(delta), delta.shape)
            i = pos[r]
            y[i, src] = 0.0
            y[i, j] = 1.0
            loads[j] += a[i]
            if src < k:
                loads[src] -= a[i]
    if not _verify_hard(problem, y):
        return None
    return y


def _allocate_hard(problem: Problem, D: np.ndarray, model: _AllocationLP, time_budget: float | None) -> Assignment:
    """Optimal binary memberships: an integral root LP as it is, else HiGHS's MIP to a zero gap.

    When ``time_budget`` stops the search, the result is the cheapest of
    HiGHS's incumbent, the greedy one and the last assignment returned with
    ``model`` since its ``restart`` (still feasible, since capacities do not
    depend on the centers), with its gap against the root LP bound.
    """
    cost = _column_costs(problem, D)
    y0 = model.solve(cost, D).reshape(problem.n, -1)
    y = np.round(y0)
    if np.all(np.abs(y0 - y) <= 1e-7) and _verify_hard(problem, y):
        diagnostics = {"nodes": 1, "fastpath": "lp_integral"}
    else:
        # With presolve on, HiGHS (scipy 1.17) ends some infeasible MIPs in
        # "Solve error" and prints to stdout; with it off it proves them infeasible.
        options = {"mip_rel_gap": 0.0, "presolve": False}
        if time_budget is not None:
            options["time_limit"] = time_budget
        res = model.run_milp(cost.ravel(), integrality=1, options=options)
        diagnostics = {"nodes": int(res.mip_node_count or 0)}
        if res.status == 2:
            lo, hi = problem.capacity
            raise Infeasible(
                "the capacity window admits no binary assignment "
                f"(L={lo:g}, U={hi:g}; capacity coefficients cannot be split)"
            )
        # HiGHS may return -0.0 or values a rounding error away from 0 and 1
        y = None if res.x is None else np.round(res.x).reshape(problem.n, -1) + 0.0
        if res.status == 1:
            # The budget ran out.  The greedy incumbent can be far better than
            # HiGHS's early in the search; the last one keeps a descent from rising.
            incumbents = [] if y is None else [(_objective(problem, cost, y), float(res.mip_gap), y)]
            bound = _objective(problem, cost, y0)
            for other in (_greedy_incumbent(problem, D), model.last_hard):
                if other is not None:
                    value = _objective(problem, cost, other)
                    incumbents.append((value, (value - bound) / max(1.0, abs(value)), other))
            if not incumbents:
                raise NoIncumbentWithinBudget(f"no feasible hard assignment within {time_budget:g}s")
            _value, diagnostics["optimality_gap"], y = min(incumbents, key=lambda item: item[0])
        elif res.status != 0:
            raise CapclustError(f"HiGHS did not solve the hard allocation: {res.message}")
    model.last_hard = y
    # With every q_i = 1 each row is one-hot, so its column labels it.
    labels = np.argmax(y, axis=1) if problem.coverages.max() == 1 else None
    return Assignment(y=y, has_outlier=problem.has_outlier_column, diagnostics=diagnostics, labels=labels)
