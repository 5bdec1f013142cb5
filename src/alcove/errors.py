"""Typed exceptions shared across the library, and the int, rational and
iterable checks.

Two families matter to callers: ValidationError for bad arguments or
domain-rule violations (CLI exit code 2), ResourceError for exceeded
computational budgets (CLI exit code 3).
"""

from fractions import Fraction

__all__ = [
    "AlcoveError",
    "DimensionMismatchError",
    "DominationError",
    "EmptySetError",
    "EnumerationLimitError",
    "FoldLimitError",
    "InvalidTypeError",
    "LevelMismatchError",
    "NonConcaveError",
    "NotARootError",
    "NotAVertexError",
    "NotInChamberError",
    "ResourceError",
    "SearchBudgetError",
    "ValidationError",
]


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


def _items(value, what: str):
    """An iterator over value; ValidationError("a <type> is not <what>")
    when value is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"a {type(value).__name__} is not {what}") from None


def _rational(value) -> Fraction:
    """An exact rational; floats and bools are refused, not converted."""
    if type(value) is Fraction:
        return value
    if not isinstance(value, (bool, float)):
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValidationError(
        f"not an exact rational number: {value!r} is a {type(value).__name__}"
    )
