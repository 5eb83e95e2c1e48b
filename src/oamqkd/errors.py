"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Raised when a parameter set or quantum state fails its invariants."""


class EncodingMismatchError(ValidationError):
    """Raised when a state and a measurement basis use different encodings."""


class DomainError(ValueError):
    """Raised when a closed-form expression is evaluated outside its domain."""


class EstimationError(RuntimeError):
    """Raised when session data is insufficient to estimate the decoy observables."""


class DegenerateInputError(ValueError):
    """Raised on degenerate measurement data (all-zero frame, constant centroids, ...)."""


class ThresholdUndefinedError(RuntimeError):
    """Raised when a rate curve has no sign change inside the scanned bracket."""
