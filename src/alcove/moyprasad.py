"""Concave functions on the roots and exact filtration-index exponents.

A concave function assigns a rational to every root and to 0, subject
to f(a) + f(b) >= f(a+b) whenever a+b is a root, f(a) + f(-a) >= f(0),
and f(0) >= 0.  Point functions f_x(a) = -a(x) describe the filtration
attached to a point; index exponents between nested concave functions
are the log_q group indices driving every cardinality bound here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Mapping

from .apartment import _numerators, as_point
from .cartan import Root, RootDatum, eval_root
from .errors import (
    DominationError,
    EmptySetError,
    LevelMismatchError,
    NonConcaveError,
    NotInChamberError,
    ValidationError,
    require_int,
)


@dataclass(frozen=True)
class ConcaveFunction:
    """Total assignment on the roots of both signs plus the value at 0."""

    at_zero: Fraction
    values: dict[Root, Fraction]

    def __call__(self, root: Root) -> Fraction:
        return self.values[tuple(root)]


def make_function(datum: RootDatum, at_zero, values: Mapping[Root, object]) -> ConcaveFunction:
    """Build a candidate function, checking totality but not concavity."""
    table = {tuple(r): Fraction(v) for r, v in values.items()}
    expected = set(datum.all_roots())
    if set(table) != expected:
        raise ValidationError("function must be defined on every root of both signs")
    return ConcaveFunction(at_zero=Fraction(at_zero), values=table)


def _require_total(datum: RootDatum, f: ConcaveFunction) -> None:
    if set(f.values) != set(datum.all_roots()):
        raise ValidationError("function is not total on the roots of this system")


def is_concave(datum: RootDatum, f: ConcaveFunction) -> bool:
    """Check the three concavity inequalities."""
    _require_total(datum, f)
    if f.at_zero < 0:
        return False
    root_set = datum.root_set
    values = f.values
    for alpha, fa in values.items():
        minus = tuple(-c for c in alpha)
        if fa + values[minus] < f.at_zero:
            return False
        for beta, fb in values.items():
            total = tuple(a + b for a, b in zip(alpha, beta))
            if total in root_set and fa + fb < values[total]:
                return False
    return True


def point_function(datum: RootDatum, x) -> ConcaveFunction:
    """f_x(a) = -a(x), the concave function of the point x."""
    point = as_point(datum, x)
    return ConcaveFunction(
        at_zero=Fraction(0),
        values={r: -eval_root(datum, r, point) for r in datum.all_roots()},
    )


def omega_function(datum: RootDatum, points: Iterable) -> ConcaveFunction:
    """Pointwise maximum of the point functions of a nonempty set."""
    pts = [as_point(datum, p) for p in points]
    if not pts:
        raise EmptySetError("omega function needs at least one point")
    values = {
        r: max(-eval_root(datum, r, p) for p in pts) for r in datum.all_roots()
    }
    return ConcaveFunction(at_zero=Fraction(0), values=values)


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
    r = Fraction(r)
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
    contributions: dict[Root, int] = {}
    for root, fv in f.values.items():
        gv = g.values[root]
        if gv < fv:
            raise DominationError(f"g < f at root {root}")
        contributions[root] = ceil(gv) - ceil(fv)
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
            f"{point} is outside the closed chamber; fold it before calling"
        )
    if r_prime is not None:
        require_int(r_prime, "cap level must be a positive integer", 1)
    pts, N = _numerators((point,))
    return _capped_exponent(datum, pts[0], N, r_prime)


def _capped_exponent(datum: RootDatum, a, N: int, cap: int | None) -> int:
    """Sum over positive roots of max(min(ceil(alpha(x)), cap) - 1, 0)
    at the point x = a / N given by integer numerators."""
    total = 0
    for root in datum.positive_roots:
        level = -(-sum(c * v for c, v in zip(root, a)) // N)
        if cap is not None and level > cap:
            level = cap
        if level > 1:
            total += level - 1
    return total


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
    px = as_point(datum, x)
    py = as_point(datum, y)
    gap = r1 - r2
    for root in datum.positive_roots:
        diff = eval_root(datum, root, px) - eval_root(datum, root, py)
        if diff > gap or -diff > gap:
            return False
    return True


def concave_function_to_dict(f: ConcaveFunction) -> dict:
    return {
        "at_zero": str(f.at_zero),
        "values": [
            {"root": list(root), "value": str(value)}
            for root, value in sorted(f.values.items())
        ],
    }
