"""Exception types shared across the toolkit."""


class QDomainError(ValueError):
    """Argument outside the domain of a deformed-log operation.

    For the deformed exponential the offending boundary value
    ``1 + (1 - q) * x`` is attached, so callers such as line searches can
    see how far out of domain the argument fell.
    """

    def __init__(self, message, boundary=None):
        super().__init__(message)
        self.boundary = boundary


class ConvergenceError(RuntimeError):
    """An iteration failed to reach tolerance.

    ``last`` carries the final iterate and ``residuals`` whatever residual
    information the caller finds useful for diagnosis.
    """

    def __init__(self, message, last=None, residuals=None):
        super().__init__(message)
        self.last = last
        self.residuals = residuals


class ImpossibleTrajectoryError(ValueError):
    """A trajectory contains a transition the chain assigns probability zero."""
