"""Exception types shared across the package."""


class OpaError(Exception):
    """Base class for all package-specific errors."""


class EnvelopeOverflowError(OpaError):
    """A series operation cannot produce a valid coefficient-decay envelope."""


class CannotCertifyError(OpaError):
    """A rigorous bound below the requested tolerance is not attainable
    from the stored coefficients and envelopes."""


class OrthogonalDataError(OpaError):
    """<g, f> = 0 within certified error; optimal approximants are undefined."""


class NotPositiveDefiniteError(OpaError):
    """A pivot fell below threshold during Cholesky factorization."""


class IllConditionedError(OpaError):
    """A linear system was solvable but too ill-conditioned to trust."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NotReproducibleError(OpaError):
    """The requested point does not support bounded derivative evaluation
    at the requested order, so the kernel series diverges."""


class RootFindingError(OpaError):
    """The root finder did not converge; ``best`` carries the last iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
