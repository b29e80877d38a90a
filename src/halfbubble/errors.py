"""Typed exceptions shared across the package.

The CLI maps these onto process exit codes: input/domain/validation problems
exit 2, numeric-budget and sampling failures exit 3, filesystem problems
(plain OSError) exit 4.
"""

from __future__ import annotations


class HalfBubbleError(Exception):
    """Base class for all package-specific errors."""


class InputFormatError(HalfBubbleError):
    """Malformed input artifact: bad shape, unknown field, wrong type."""


class DomainError(HalfBubbleError):
    """Value outside the mathematical domain of an operation."""


class ValidationFailure(HalfBubbleError):
    """A verification suite found a violated identity."""


class UnsupportedPatternError(DomainError):
    """Angular moment pattern outside the implemented table (degree > 4)."""


class ConstructionImpossibleError(DomainError):
    """No admissible table point: every gamma <= 0 or phi >= 0.

    The blow-up family cannot be built from the supplied data; consistent
    with the compactness alternative, not a numerical failure.
    """


class BudgetError(HalfBubbleError):
    """Monte Carlo budget exhausted: a residual-ladder rung's standard error
    exceeds the allowed share of its norm at the given sample count.

    Carries the best estimate and its error so callers can decide whether
    to accept it.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = float(best_estimate)
        self.error_estimate = float(error_estimate)


class PoisonedEstimateError(HalfBubbleError):
    """A Monte Carlo integrand returned a non-finite value.

    Names one offending sample point so the failure is reproducible.
    """

    def __init__(self, message: str, t: float, z):
        super().__init__(message)
        self.t = float(t)
        self.z = z


class SolverError(HalfBubbleError):
    """Linear solve or eigenvalue probe failed its quality gate."""
