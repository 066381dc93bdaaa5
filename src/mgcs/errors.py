"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration (divisibility, sizes, overdraw)."""


class DomainError(ValueError):
    """Arguments outside the documented domain of an operation."""


class BudgetExceededError(RuntimeError):
    """A brute-force certification was refused because the enumeration is too large."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to meet its target; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# every typed error of the package; any other exception is a programming error
PACKAGE_ERRORS = (ConfigurationError, DomainError, BudgetExceededError, ConvergenceError)
