"""Exception taxonomy shared across the package.

Every error class carries the CLI exit code that the command dispatcher
reports when the error escapes to the top level.
"""

EXIT_FAILURE = 1
EXIT_DOMAIN = 3
EXIT_CAP = 4
EXIT_BUDGET = 5
EXIT_INCONCLUSIVE = 6

#: Every size cap of the package, named once: name -> (limit, unit).  Each
#: check reads its limit here, through `cap`, when it runs.
CAPS = {
    "entry_bits": (10**6, "bits"),  # one exact entry, or a word length
    "product_bits": (2**27, "bits"),  # r^2 times one product's entry bits
    "matrix_entries": (2**16, "entries"),  # r x r, so r <= 256
    "letters": (10**6, "letters"),  # one window or atlas word
    "atlas_letters": (2 * 10**6, "letters"),  # both level-12 words fit
    "length_digits": (10**5, "digits"),  # an atlas word length, from q alone
    "levels": (10**4, "levels"),  # --level, --depth, a --from/--to span
    "classes": (2**20, "classes"),  # one per block of the parent word
    "steps": (10**8, "steps"),  # one diffusion path
    "paths": (10**5, "paths"),  # one run keeps each result, about 0.7 KB
    "trace_points": (10**6, "points"),  # one run's, about 160 bytes each
    "tiles": (50_000, "tiles"),  # one render window, or its overlay boxes
    "outline_points": (32_768, "points"),  # depth-13 arcs fit, not depth 16
    "quadrature_pieces": (200, "pieces"),  # `boundary_recover`'s interval
}


def cap(name: str) -> int:
    """The limit of the cap `name` in `CAPS`."""
    return CAPS[name][0]


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
