"""Exception types shared across the package."""


class CircsymError(Exception):
    """Base class for all circsym-specific errors."""


class EmptySampleError(CircsymError, ValueError):
    """Raised when a sample has too few observations for the operation."""


class DegenerateSampleError(CircsymError, ValueError):
    """Raised when every sin(k(x - theta)) vanishes and a test statistic is undefined."""


class DegenerateInformationError(CircsymError, ValueError):
    """Raised when a required Fisher information entry is zero."""


class UnsupportedBaseError(CircsymError, ValueError):
    """Raised when a density outside the symmetric unimodal class is used where membership is required."""


class QuadratureConvergenceError(CircsymError, RuntimeError):
    """Raised when panel refinement exhausts its budget without meeting tolerance.

    Carries the last estimate so callers can inspect how close the
    integrator got.
    """

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate
