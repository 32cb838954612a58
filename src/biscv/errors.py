"""Exception hierarchy shared by all biscv modules."""

from __future__ import annotations


class BiscvError(Exception):
    """Base error for this package."""


class DomainError(BiscvError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(DomainError):
    """A distribution spec string does not match the grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"parse error at position {position}: {message}"
        super().__init__(message)
        self.position = position


class NonDifferentiableError(DomainError):
    """The density has no derivative at the requested point."""


class EvaluationError(BiscvError):
    """A user-supplied callable produced NaN.

    ``abscissa`` records the offending evaluation point.
    """

    def __init__(self, message: str, abscissa: float):
        super().__init__(f"{message} at x={abscissa!r}")
        self.abscissa = abscissa


class QuadratureError(BiscvError):
    """Adaptive quadrature did not converge.

    ``best_estimate`` and ``error_estimate`` carry the state at the point
    of failure so callers can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float,
                 subdivisions: int):
        super().__init__(
            f"{message} (best estimate {best_estimate!r}, "
            f"error estimate {error_estimate!r}, {subdivisions} subdivisions)")
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.subdivisions = subdivisions


class BracketError(BiscvError):
    """A search bracket does not contain the sought boundary."""


class PreconditionError(BiscvError):
    """A documented precondition of an operation does not hold."""
