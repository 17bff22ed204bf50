"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A control parameter (sample count, block length, ...) is unusable."""


class PeakPowerError(ValueError):
    """An input vector violates the peak-power constraint."""

    def __init__(self, index, power, limit):
        self.index = index
        self.power = power
        self.limit = limit
        super().__init__(
            f"input vector {index} has squared norm {power:.6g} > peak power {limit:.6g}"
        )


class RankError(DomainError):
    """A channel matrix is (numerically) rank deficient."""


class NumericUnderflowError(ArithmeticError):
    """A forward-recursion weight underflowed (raise `q_levels` for the
    requested SNR), or a von Mises concentration is past the range of the
    Bessel functions."""


class OptimizationError(RuntimeError):
    """A line search failed to converge."""


class SchemaError(ValueError):
    """A CSV or config file does not match the expected schema."""


class UsageError(ValueError):
    """Bad command line or config-file usage."""
