"""Choosing the number of centers k.

``sweep_k`` minimizes the objective with a zero opening cost once per k
and overlays each opening penalty analytically, since the penalized value
is just base + lambda * k.  For squared-Euclidean clustering with known
variance, ``aic_bic_lambda`` returns the information-criterion guideline
penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import CapclustError, NonpositiveVariance, ValidationError
from .model import Problem, Solution, _finite_nonnegative, _is_integer, validate_problem
from .solver import SolverConfig, _sequences, solve

import math


@dataclass
class SweepReport:
    k_values: list[int]
    base_objectives: dict[int, float]
    penalized: dict[float, dict[int, float]]
    argmin_k: dict[float, int]
    consensus_k: int | None
    solutions: dict[int, Solution] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)

    def first_differences(self) -> dict[int, float]:
        """Successive drops of the base curve, for reading the elbow."""
        ks = sorted(self.base_objectives)
        return {
            k2: self.base_objectives[k2] - self.base_objectives[k1]
            for k1, k2 in zip(ks, ks[1:])
        }


def sweep_k(
    problem: Problem,
    k_range,
    lambda_grid,
    config: SolverConfig = SolverConfig(),
) -> SweepReport:
    """Solve once per k with zero opening cost, then overlay every penalty.

    Each k solves a ``dataclasses.replace`` of ``problem``, so every k and
    restart reads the problem's shared per-point arrays and site costs.
    The sweep builds its restarts' k-means++ draw sequences once, in
    lockstep groups, from the first k that validates, and hands the groups
    to the solve of every k: each restart draws its seeds once, up to the
    largest k, and every k takes the first k of them, the seeds a
    standalone solve would draw.
    Per-k solver failures (e.g. an unreachable lower capacity limit at
    large k) are recorded, not fatal.  The consensus k is the one chosen
    by the most penalties; ties go to the smaller k.  Every penalty must
    be finite and nonnegative, as an opening penalty must.
    """
    k_range, lambda_grid = list(k_range), list(lambda_grid)
    for k in k_range:
        if not _is_integer(k):
            raise ValidationError(f"k_range must hold integers (got {k!r})")
    for lam in lambda_grid:
        if not _finite_nonnegative(lam):
            raise ValidationError(f"opening penalty {lam!r} in the lambda grid must be finite and nonnegative")
    k_values, lambda_grid = sorted(set(int(k) for k in k_range)), [float(lam) for lam in lambda_grid]
    if not k_values:
        raise ValueError("k_range must be nonempty")
    base: dict[int, float] = {}
    solutions: dict[int, Solution] = {}
    errors: dict[int, str] = {}
    sequences = None
    for k in k_values:
        trial = replace(problem, centers=replace(problem.centers, k=k), opening_penalty=0.0)
        try:
            if sequences is None:
                trial = validate_problem(trial)
                sequences = _sequences(trial, config)
            best = solve(trial, config, sequences=sequences)
            base[k] = best.objective.total
            solutions[k] = best
        except CapclustError as exc:
            errors[k] = str(exc)
    penalized: dict[float, dict[int, float]] = {}
    argmin_k: dict[float, int] = {}
    for lam in lambda_grid:
        values = {k: base[k] + lam * k for k in base}
        penalized[lam] = values
        if values:
            argmin_k[lam] = min(values, key=lambda k: (values[k], k))
    consensus = None
    if argmin_k:
        votes: dict[int, int] = {}
        for k in argmin_k.values():
            votes[k] = votes.get(k, 0) + 1
        consensus = min(votes, key=lambda k: (-votes[k], k))
    return SweepReport(
        k_values=k_values,
        base_objectives=base,
        penalized=penalized,
        argmin_k=argmin_k,
        consensus_k=consensus,
        solutions=solutions,
        errors=errors,
    )


def aic_bic_lambda(sigma2: float, n: int) -> tuple[float, float]:
    """Guideline opening penalties for squared-Euclidean clustering.

    AIC: 4 * sigma^2; BIC: 2 * ln(n) * sigma^2 (natural logarithm).
    """
    if not sigma2 > 0:
        raise NonpositiveVariance(f"variance must be positive, got {sigma2}")
    if n < 2:
        raise ValueError("n must be at least 2")
    return 4.0 * sigma2, 2.0 * math.log(n) * sigma2
