"""Typed exceptions shared across the library, and the integer-argument check.

Two families matter to callers: ValidationError for bad arguments or
domain-rule violations (CLI exit code 2), ResourceError for exceeded
computational budgets (CLI exit code 3).
"""


class AlcoveError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AlcoveError, ValueError):
    """Invalid argument or violated precondition."""


class ResourceError(AlcoveError, RuntimeError):
    """A configured computational budget was exceeded."""


class InvalidTypeError(ValidationError):
    """Family/rank combination outside the supported root-system types."""


class DimensionMismatchError(ValidationError):
    """Vector length does not match the rank of the root system."""


class NotARootError(ValidationError):
    """Coefficient vector is not a root of the given system."""


class NotAVertexError(ValidationError):
    """Point is not a vertex of the apartment's simplicial structure."""


class NotInChamberError(ValidationError):
    """Point lies outside the closed fundamental chamber."""


class EmptySetError(ValidationError):
    """An operation over a set of points received an empty set."""


class NonConcaveError(ValidationError):
    """Function fails one of the concavity inequalities."""


class DominationError(ValidationError):
    """Domination precondition g >= f fails at some root."""


class LevelMismatchError(ValidationError):
    """Values at zero disagree, or are not positive where required."""


class EnumerationLimitError(ResourceError):
    """Candidate-point budget exhausted during lattice enumeration."""


class SearchBudgetError(ResourceError):
    """Breadth-first search exceeded its allotted radius.

    Distinct from unreachability: the target may exist beyond the
    explored radius.
    """


class FoldLimitError(ResourceError):
    """Reflection count exceeded the folding circuit breaker."""


def require_int(value, message: str, minimum: int | None = None) -> int:
    """value if it is an int (not a bool) of at least minimum, else
    ValidationError(message)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        raise ValidationError(message)
    return value
