"""Concave functions on the roots and exact filtration-index exponents.

A concave function assigns a rational to every root and to 0, subject
to f(a) + f(b) >= f(a+b) whenever a+b is a root, f(a) + f(-a) >= f(0),
and f(0) >= 0.  Point functions f_x(a) = -a(x) describe the filtration
attached to a point; index exponents between nested concave functions
are the log_q group indices driving every cardinality bound here.

ConcaveFunction holds Fractions, the public edge.  The checks work on
integer numerators over one common denominator: concavity walks a
root-addition table (the index triples of all_roots() with
root_i + root_j = root_k), built once per datum, and point values,
index exponents and filtration containment come from integer root
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping

from .apartment import _numerators, _point_text, _tester
from .cartan import Root, RootDatum, _coefficients, _per_datum, _root, as_point
from .errors import (
    DominationError,
    EmptySetError,
    LevelMismatchError,
    NonConcaveError,
    NotARootError,
    NotInChamberError,
    ValidationError,
    _items,
    _rational,
    require_int,
)

__all__ = [
    "ConcaveFunction",
    "IndexExponent",
    "concave_function_to_dict",
    "filtration_contains",
    "index_exponent",
    "is_concave",
    "make_function",
    "omega_function",
    "optimize",
    "point_function",
    "pointwise_max",
    "quotient_exponents",
    "shift",
]


@dataclass(frozen=True)
class ConcaveFunction:
    """Total assignment on the roots of both signs plus the value at 0.

    The value at 0 and every value are checked exact when the function
    is built and kept as Fractions in a read-only mapping, so the check
    holds for the function's life; the roots are checked against a
    datum where one is known."""

    at_zero: Fraction
    values: Mapping[Root, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "at_zero", _rational(self.at_zero))
        values = {r: _rational(v) for r, v in _mapping(self.values).items()}
        object.__setattr__(self, "values", MappingProxyType(values))

    def __call__(self, root: Root) -> Fraction:
        """The value at root; NotARootError when root is not one of the
        function's roots."""
        key = _coefficients(root)
        if key not in self.values:
            raise NotARootError(f"{key} is not a root of this function")
        return self.values[key]


def make_function(datum: RootDatum, at_zero, values: Mapping[Root, object]) -> ConcaveFunction:
    """Build a candidate function, checking totality but not concavity."""
    values = {_root(datum, r): v for r, v in _mapping(values).items()}
    f = ConcaveFunction(at_zero=at_zero, values=values)
    _require_total(datum, f)
    return f


def _mapping(values) -> Mapping:
    if not isinstance(values, Mapping):
        raise ValidationError(f"a {type(values).__name__} is not a mapping of roots to values")
    return values


def _require_total(datum: RootDatum, f: ConcaveFunction) -> None:
    if f.values.keys() != datum.root_set:
        raise ValidationError("function is not total on the roots of this system")


@_per_datum
def _addition_table(datum: RootDatum) -> tuple[tuple[int, int, int], ...]:
    """Index triples (i, j, k) with i < j and root_i + root_j = root_k,
    in all_roots() order; built once per datum."""
    roots = datum.all_roots()
    index = {root: k for k, root in enumerate(roots)}
    return tuple(
        (i, j, k)
        for i, a in enumerate(roots)
        for j in range(i + 1, len(roots))
        if (k := index.get(tuple(map(add, a, roots[j])))) is not None
    )


def _integer_values(
    roots: tuple[Root, ...], *functions: ConcaveFunction
) -> tuple[list[list[int]], int]:
    """Each function's values on roots, then its value at 0, as integer
    numerators over one common denominator D; (rows, D)."""
    return _numerators(tuple((*map(f.values.__getitem__, roots), f.at_zero) for f in functions))


def is_concave(datum: RootDatum, f: ConcaveFunction) -> bool:
    """Check the three concavity inequalities."""
    _require_total(datum, f)
    (v,), _ = _integer_values(datum.all_roots(), f)
    zero = v[-1]
    if zero < 0:
        return False
    n = len(datum.positive_roots)
    # the negative of root i sits at i + n
    if any(v[i] + v[i + n] < zero for i in range(n)):
        return False
    return all(v[i] + v[j] >= v[k] for i, j, k in _addition_table(datum))


def point_function(datum: RootDatum, x) -> ConcaveFunction:
    """f_x(a) = -a(x), the concave function of the point x."""
    return omega_function(datum, (x,))


def omega_function(datum: RootDatum, points: Iterable) -> ConcaveFunction:
    """Pointwise maximum of the point functions of a nonempty set."""
    pts, N = _numerators(tuple(as_point(datum, p) for p in _items(points, "a list of points")))
    if not pts:
        raise EmptySetError("omega function needs at least one point")
    # alpha(x) * N for every positive root alpha (rows) and point x (columns)
    rows = list(zip(*map(_tester(datum).root_values, pts)))
    values = [Fraction(-min(r), N) for r in rows] + [Fraction(max(r), N) for r in rows]
    return ConcaveFunction(at_zero=Fraction(0), values=dict(zip(datum.all_roots(), values)))


def _optimized(v: Fraction) -> Fraction:
    return v + 1 if v.denominator == 1 else Fraction(ceil(v))


def optimize(datum: RootDatum, f: ConcaveFunction) -> ConcaveFunction:
    """Jump past the current level: integer values step up by one, the
    rest round up.  The same rule applies at 0."""
    _require_total(datum, f)
    return ConcaveFunction(
        at_zero=_optimized(f.at_zero),
        values={r: _optimized(v) for r, v in f.values.items()},
    )


def shift(f: ConcaveFunction, r) -> ConcaveFunction:
    """Add the constant r everywhere, the value at 0 included."""
    r = _rational(r)
    return ConcaveFunction(
        at_zero=f.at_zero + r,
        values={root: v + r for root, v in f.values.items()},
    )


def pointwise_max(f: ConcaveFunction, g: ConcaveFunction) -> ConcaveFunction:
    if set(f.values) != set(g.values):
        raise ValidationError("functions live on different root systems")
    return ConcaveFunction(
        at_zero=max(f.at_zero, g.at_zero),
        values={root: max(v, g.values[root]) for root, v in f.values.items()},
    )


@dataclass(frozen=True)
class IndexExponent:
    """log_q of a filtration index, with one summand per root."""

    exponent: int
    per_root_contributions: dict[Root, int]


def index_exponent(datum: RootDatum, f: ConcaveFunction, g: ConcaveFunction) -> IndexExponent:
    """Sum of ceil(g(a)) - ceil(f(a)) over the roots of both signs.

    Requires both functions concave, g >= f on the roots, and equal
    positive values at 0.
    """
    if not is_concave(datum, f):
        raise NonConcaveError("lower function is not concave")
    if not is_concave(datum, g):
        raise NonConcaveError("upper function is not concave")
    if f.at_zero != g.at_zero:
        raise LevelMismatchError(
            f"values at zero differ: {f.at_zero} vs {g.at_zero}"
        )
    if f.at_zero <= 0:
        raise LevelMismatchError("value at zero must be positive")
    roots = tuple(f.values)
    (fv, gv), D = _integer_values(roots, f, g)
    contributions: dict[Root, int] = {}
    for root, a, b in zip(roots, fv, gv):
        if b < a:
            raise DominationError(f"g < f at root {root}")
        contributions[root] = (-a // D) - (-b // D)
    return IndexExponent(
        exponent=sum(contributions.values()),
        per_root_contributions=contributions,
    )


def quotient_exponents(datum: RootDatum, x, r_prime: int | None = None) -> int:
    """Exponent of the vertex quotient at x, optionally capped at level r'.

    Uncapped this is sum over positive roots of max(ceil(a(x)) - 1, 0);
    the cap replaces ceil(a(x)) by min(ceil(a(x)), r').  The point must
    lie in the closed fundamental chamber; fold it there first.
    """
    point = as_point(datum, x)
    if any(t < 0 for t in point):
        raise NotInChamberError(
            f"{_point_text(point)} is outside the closed chamber; fold it before calling"
        )
    if r_prime is not None:
        require_int(r_prime, "cap level must be a positive integer", 1)
    pts, N = _numerators((point,))
    return _capped_exponent(_root_levels(datum, pts[0], N), r_prime)


def _root_levels(datum: RootDatum, a, N: int) -> tuple[int, ...]:
    """ceil(alpha(x)) over the positive roots at x = a / N."""
    return tuple([-(-v // N) for v in _tester(datum).root_values(a)])


def _capped_exponent(levels: Iterable[int], cap: int | None) -> int:
    """Sum of max(min(level, cap) - 1, 0) over the root levels of a
    point in the closed chamber; cap None means no cap."""
    return sum(min(level, cap or level) - 1 for level in levels if level > 1)


def filtration_contains(datum: RootDatum, x, r1: int, y, r2: int) -> bool:
    """Whether the level-r1 group at x sits inside the level-r2 group at y.

    This is the pointwise comparison f_x + r1 >= f_y + r2 on the roots
    and at 0; with r1 > r2 >= 0 it amounts to |a(x) - a(y)| <= r1 - r2
    for every root a.
    """
    require_int(r1, "levels must be integers")
    require_int(r2, "levels must be integers")
    if not r1 > r2 >= 0:
        raise ValidationError("levels must satisfy r1 > r2 >= 0")
    (ax, ay), N = _numerators((as_point(datum, x), as_point(datum, y)))
    gap = (r1 - r2) * N
    return all(abs(v) <= gap for v in _tester(datum).root_values(list(map(sub, ax, ay))))


def concave_function_to_dict(f: ConcaveFunction) -> dict:
    return {
        "at_zero": str(f.at_zero),
        "values": [
            {"root": list(root), "value": str(value)}
            for root, value in sorted(f.values.items())
        ],
    }
