"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised for inconsistent model/scenario setup (bad dimensions, ranges)."""


class ValidationError(ConfigurationError):
    """Raised by scenario validation; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step fails (a singular innovation
    covariance, a matrix consensus gain that overflows)."""
