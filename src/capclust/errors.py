"""Exception types shared across the package."""

from __future__ import annotations


class CapclustError(Exception):
    """Base class for all capclust errors."""


class ValidationError(CapclustError):
    """A problem instance violates a structural invariant."""


class NegativeWeight(ValidationError):
    pass


class FixedCenterNotCandidate(ValidationError):
    pass


class ThresholdRequiresDiscrete(ValidationError):
    pass


class CapacityWindowInverted(ValidationError):
    pass


class KTooSmall(ValidationError):
    pass


class ShapeMismatch(CapclustError):
    pass


class QExceedsK(CapclustError):
    """A point requires more memberships than there are columns to hold them."""


class EmptyCluster(CapclustError):
    """A center update was requested for a cluster with no assigned mass."""


class Infeasible(CapclustError):
    """The allocation subproblem has no feasible assignment.

    ``certificate`` is a short human-readable description of the failing
    bound (aggregate capacity checks where detectable, otherwise the
    capacity window that the LP or MIP solver proved infeasible).
    """

    def __init__(self, certificate: str):
        super().__init__(certificate)
        self.certificate = certificate


class NoIncumbentWithinBudget(CapclustError):
    """The hard-allocation MIP ran out of time before finding any feasible point."""


class NotEnoughDistinctSites(CapclustError):
    pass


class AllRestartsInfeasible(CapclustError):
    pass


class LengthMismatch(CapclustError):
    pass


class NonpositiveVariance(CapclustError):
    pass


class ParseError(CapclustError):
    """Malformed input file; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if column else f"line {line}: {message}")
        self.line = line
        self.column = column


class NegativeValue(ParseError):
    pass


class RaggedMatrix(ParseError):
    pass
