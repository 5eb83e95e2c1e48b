"""Exception types shared across the toolkit; the CLI maps each to one exit code."""


class ValidationError(ValueError):
    """A parameter, state or input value lies outside its range (exit 1)."""


class DomainError(ValueError):
    """Valid inputs from which the model or the data cannot give a value (exit 2)."""


class ThresholdUndefinedError(DomainError):
    """Raised when a rate curve has no sign change inside the scanned bracket."""
