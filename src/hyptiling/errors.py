"""Exception taxonomy shared across the package.

Every error class carries the CLI exit code that the command dispatcher
reports when the error escapes to the top level.
"""

EXIT_FAILURE = 1
EXIT_DOMAIN = 3
EXIT_CAP = 4
EXIT_BUDGET = 5
EXIT_INCONCLUSIVE = 6


class TilingError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_FAILURE


class DomainError(TilingError):
    """Arguments outside an operation's domain."""

    exit_code = EXIT_DOMAIN


class ModelError(DomainError):
    """Model violates a structural requirement (e.g. fixed-point property)."""


class UnsupportedSchemeError(DomainError):
    """Matrix scheme is not defined for the requested model."""


class DegeneracyError(DomainError):
    """A matrix column or vector degenerated to zero where positivity is required."""


class CapError(TilingError):
    """A configured depth/step cap was reached before the value was determined."""

    exit_code = EXIT_CAP


class SizeError(TilingError):
    """Materialization would exceed the configured size threshold."""

    exit_code = EXIT_BUDGET


class BudgetError(SizeError):
    """A computation budget (bits, explicit items) was exceeded."""


class QuadratureError(TilingError):
    """Numeric integration failed to reach the requested accuracy."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InconclusiveError(TilingError):
    """A certification loop terminated without reaching a verdict."""

    exit_code = EXIT_INCONCLUSIVE
