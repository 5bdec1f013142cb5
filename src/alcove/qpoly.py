"""Exact polynomials in a formal variable q with integer coefficients.

Cardinalities of filtration quotients over a residue field of size q
are polynomials in q with nonnegative integer coefficients; keeping
them symbolic keeps every bound exact for all prime powers at once.
Sparse dict representation, arbitrary-precision coefficients.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import wraps

from .errors import ValidationError, _rational, require_int

__all__ = ["QPolynomial"]

NEG_INFINITY = float("-inf")


def _operand(method):
    """method with its operand as a QPolynomial, an int as a constant;
    any other operand is NotImplemented, left to Python."""

    @wraps(method)
    def coerced(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            other = QPolynomial({0: other})
        elif not isinstance(other, QPolynomial):
            return NotImplemented
        return method(self, other)

    return coerced


class QPolynomial:
    """Immutable sparse polynomial in q over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """terms maps exponents to coefficients, or lists (exponent,
        coefficient) pairs; an exponent a list gives twice is refused."""
        if terms is None:
            terms = {}
        try:
            pairs = [(e, c) for e, c in (terms.items() if isinstance(terms, Mapping) else terms)]
        except (TypeError, ValueError):
            raise ValidationError(f"a {type(terms).__name__} is not a mapping of terms") from None
        given: dict[int, int] = {}
        for exponent, coefficient in pairs:
            require_int(exponent, f"exponent {exponent!r} is not an integer")
            if exponent < 0:
                raise ValidationError(f"negative exponent {exponent}")
            if exponent in given:
                raise ValidationError(f"repeated exponent {exponent}")
            message = f"coefficient {coefficient!r} is not an integer"
            given[exponent] = require_int(coefficient, message)
        object.__setattr__(self, "_terms", {e: c for e, c in given.items() if c})

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "QPolynomial":
        return cls({exponent: coefficient})

    @property
    def degree(self):
        """Largest exponent with a nonzero coefficient; -inf for the zero
        polynomial."""
        return max(self._terms) if self._terms else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self._terms[max(self._terms)] if self._terms else 0

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @_operand
    def __eq__(self, other) -> bool:
        return self._terms == other._terms

    def __hash__(self) -> int:
        """A constant hashes as its int, which it equals."""
        return hash(self.coefficient(0) if self.degree <= 0 else frozenset(self._terms.items()))

    @_operand
    def __add__(self, other) -> "QPolynomial":
        terms = dict(self._terms)
        for exponent, coefficient in other._terms.items():
            terms[exponent] = terms.get(exponent, 0) + coefficient
        return QPolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({e: -c for e, c in self._terms.items()})

    @_operand
    def __sub__(self, other) -> "QPolynomial":
        return self + (-other)

    @_operand
    def __rsub__(self, other) -> "QPolynomial":
        return other - self

    @_operand
    def __mul__(self, other) -> "QPolynomial":
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return QPolynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        require_int(n, "power must be a nonnegative integer", 0)
        result = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, q):
        """Exact value at a rational q, read as every rational argument is;
        an integral q is read as its numerator, so its value is an int."""
        q = _rational(q)
        if q.denominator == 1:
            q = q.numerator
        return sum([coefficient * q**exponent for exponent, coefficient in self._terms.items()])

    def term_list(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._terms.items())

    def to_serializable(self) -> list[list]:
        """Ascending [exponent, coefficient-string] pairs; big integers
        travel as strings."""
        return [[e, str(c)] for e, c in self.term_list()]

    @classmethod
    def from_serializable(cls, data) -> "QPolynomial":
        """Inverse of to_serializable: int() reads strings, the constructor
        checks the rest, and refuses an exponent given twice."""
        try:
            pairs = []
            for pair in data:
                exponent, coefficient = [int(v) if isinstance(v, str) else v for v in pair]
                pairs.append((exponent, coefficient))
            return cls(pairs)
        except (TypeError, ValueError) as err:
            raise ValidationError(f"malformed polynomial data: {err}") from err

    def render(self) -> str:
        """Human form, descending: '2q^3 + q + 3', '0' when zero."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exponent, coefficient in sorted(self._terms.items(), reverse=True):
            magnitude = abs(coefficient)
            if exponent == 0:
                body = str(magnitude)
            else:
                var = "q" if exponent == 1 else f"q^{exponent}"
                body = var if magnitude == 1 else f"{magnitude}{var}"
            if not pieces:
                pieces.append(body if coefficient > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coefficient > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"QPolynomial({self.render()})"
