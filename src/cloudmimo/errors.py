"""Exception and warning types shared across the simulator."""


class ConfigurationError(ValueError):
    """Raised when a configuration value or combination is invalid."""


class ResourceLimitError(RuntimeError):
    """Raised when a requested simulation would exceed a safety cap."""


class NumericError(ArithmeticError):
    """Raised when a computation produces a non-finite result."""


class DegenerateDistributionError(RuntimeError):
    """Raised when a distribution collapses to a point mass and the caller
    must branch instead of evaluating a density."""


class ModelValidityWarning(UserWarning):
    """Emitted when a fitted expression returns a value outside its physical
    range (for instance a negative variance) and a clamped value is used."""
