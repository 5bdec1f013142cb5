"""Concave functions on the roots and exact filtration-index exponents.

A concave function assigns a rational to every root and to 0, subject
to f(a) + f(b) >= f(a+b) whenever a+b is a root, f(a) + f(-a) >= f(0),
and f(0) >= 0.  Point functions f_x(a) = -a(x) describe the filtration
attached to a point; index exponents between nested concave functions
are the log_q group indices driving every cardinality bound here.

A ConcaveFunction holds its values as integers: one numerator per root
over one denominator common to them and to the value at 0.  Its values
mapping builds a Fraction only when a value is read, the public edge.
Point and omega functions store integer root values as they come,
shift, optimize and pointwise_max work on the numerators, and the
checks read each function once, as a row in all_roots() order:
concavity walks a root-addition table (the index triples of
all_roots() with root_i + root_j = root_k), built once per datum.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm
from operator import add, sub
from typing import Iterable

from .apartment import _numerators, _point_text, _tester
from .cartan import Root, RootDatum, _coefficients, _per_datum, _root, _root_index, as_point
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


class _Values(Mapping):
    """A function's values, read-only: the value at root is
    Fraction(nums[index[root]], den), built on each read.  index maps
    each root to its place in nums, in the order the roots iterate; the
    view prints as the mappingproxy it stands for."""

    __slots__ = ("_index", "_nums", "_den")

    def __init__(self, index: Mapping[Root, int], nums: list[int], den: int):
        self._index, self._nums, self._den = index, nums, den

    def __getitem__(self, root) -> Fraction:
        return Fraction(self._nums[self._index[root]], self._den)

    def __iter__(self) -> Iterator[Root]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, root) -> bool:
        return root in self._index

    def keys(self):
        return self._index.keys()

    def __repr__(self) -> str:
        return f"mappingproxy({dict(self)!r})"


@dataclass(frozen=True)
class ConcaveFunction:
    """Total assignment on the roots of both signs plus the value at 0.

    The value at 0 and every value are checked exact when the function
    is built, and the values are kept as integer numerators over one
    denominator common to them and to the value at 0, in a read-only
    mapping that reads them as Fractions; so the check holds for the
    function's life.  The roots are checked against a datum where one
    is known."""

    at_zero: Fraction
    values: Mapping[Root, Fraction]

    def __post_init__(self) -> None:
        at_zero = _rational(self.at_zero)
        values = {r: _rational(v) for r, v in _mapping(self.values).items()}
        den = lcm(at_zero.denominator, *(v.denominator for v in values.values()))
        nums = [v.numerator * (den // v.denominator) for v in values.values()]
        object.__setattr__(self, "at_zero", at_zero)
        object.__setattr__(self, "values", _Values({r: k for k, r in enumerate(values)}, nums, den))

    def __call__(self, root: Root) -> Fraction:
        """The value at root; NotARootError when root is not one of the
        function's roots."""
        key = _coefficients(root)
        if key not in self.values:
            raise NotARootError(f"{key} is not a root of this function")
        return self.values[key]


def _integral(
    at_zero: Fraction, index: Mapping[Root, int], nums: list[int], den: int
) -> ConcaveFunction:
    """A function of this module's own making, whose values need no
    check: den is a common denominator of at_zero and of the values."""
    f = object.__new__(ConcaveFunction)
    object.__setattr__(f, "at_zero", at_zero)
    object.__setattr__(f, "values", _Values(index, nums, den))
    return f


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
    values, index = f.values, _root_index(datum)
    if values._index is not index and values.keys() != index.keys():
        raise ValidationError("function is not total on the roots of this system")


def _row(datum: RootDatum, f: ConcaveFunction) -> tuple[list[int], int, int]:
    """f's numerators in all_roots() order, that of its value at 0, and
    their denominator; ValidationError unless f is total on the roots."""
    _require_total(datum, f)
    values = f.values
    nums, den = values._nums, values._den
    if values._index is not _root_index(datum):
        nums = [nums[values._index[root]] for root in datum.all_roots()]
    return nums, f.at_zero.numerator * (den // f.at_zero.denominator), den


@_per_datum
def _addition_table(datum: RootDatum) -> tuple[tuple[int, int, int], ...]:
    """Index triples (i, j, k) with i < j and root_i + root_j = root_k,
    in all_roots() order; built once per datum."""
    roots = datum.all_roots()
    index = _root_index(datum)
    return tuple(
        (i, j, k)
        for i, a in enumerate(roots)
        for j in range(i + 1, len(roots))
        if (k := index.get(tuple(map(add, a, roots[j])))) is not None
    )


def _concave(datum: RootDatum, v: list[int], zero: int) -> bool:
    """The concavity inequalities on a row v of numerators in
    all_roots() order, with zero the numerator of the value at 0.

    The addition table is scanned in full, with no stop at the first
    violation: a list comprehension runs each triple faster than a
    generator step, and a concave function, the common case, has every
    triple checked either way."""
    if zero < 0:
        return False
    n = len(datum.positive_roots)
    # the negative of root i sits at i + n
    if any(v[i] + v[i + n] < zero for i in range(n)):
        return False
    return not [k for i, j, k in _addition_table(datum) if v[i] + v[j] < v[k]]


def is_concave(datum: RootDatum, f: ConcaveFunction) -> bool:
    """Check the three concavity inequalities."""
    v, zero, _ = _row(datum, f)
    return _concave(datum, v, zero)


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
    nums = [-min(r) for r in rows] + [max(r) for r in rows]
    return _integral(Fraction(0), _root_index(datum), nums, N)


def optimize(datum: RootDatum, f: ConcaveFunction) -> ConcaveFunction:
    """Jump past the current level: integer values step up by one, the
    rest round up.  The same rule applies at 0."""
    _require_total(datum, f)
    values = f.values
    # floor(v) + 1 is v + 1 for an integer v and ceil(v) for any other
    nums = [n // values._den + 1 for n in values._nums]
    return _integral(Fraction(floor(f.at_zero) + 1), values._index, nums, 1)


def shift(f: ConcaveFunction, r) -> ConcaveFunction:
    """Add the constant r everywhere, the value at 0 included."""
    r = _rational(r)
    values = f.values
    den = lcm(values._den, r.denominator)
    up, step = den // values._den, r.numerator * (den // r.denominator)
    return _integral(f.at_zero + r, values._index, [n * up + step for n in values._nums], den)


def pointwise_max(f: ConcaveFunction, g: ConcaveFunction) -> ConcaveFunction:
    fv, gv = f.values, g.values
    if fv.keys() != gv.keys():
        raise ValidationError("functions live on different root systems")
    den = lcm(fv._den, gv._den)
    a, b = den // fv._den, den // gv._den
    g_nums = gv._nums if gv._index is fv._index else [gv._nums[gv._index[r]] for r in fv]
    nums = [max(x * a, y * b) for x, y in zip(fv._nums, g_nums)]
    return _integral(max(f.at_zero, g.at_zero), fv._index, nums, den)


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
    fv, f_zero, fd = _row(datum, f)
    if not _concave(datum, fv, f_zero):
        raise NonConcaveError("lower function is not concave")
    gv, g_zero, gd = _row(datum, g)
    if not _concave(datum, gv, g_zero):
        raise NonConcaveError("upper function is not concave")
    if f.at_zero != g.at_zero:
        raise LevelMismatchError(
            f"values at zero differ: {f.at_zero} vs {g.at_zero}"
        )
    if f.at_zero <= 0:
        raise LevelMismatchError("value at zero must be positive")
    # f's roots in f's order, each with its place in the rows
    index = _root_index(datum)
    places = range(len(fv)) if f.values._index is index else map(index.__getitem__, f.values)
    contributions: dict[Root, int] = {}
    for root, k in zip(f.values, places):
        a, b = fv[k], gv[k]
        if b * fd < a * gd:
            raise DominationError(f"g < f at root {root}")
        contributions[root] = (-a // fd) - (-b // gd)
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
    # ceil(v / N) > 1 exactly when v > N; v itself, never below ceil(v / N), stands for no cap
    values = _tester(datum).root_values(pts[0])
    return sum(min(-(-v // N), r_prime or v) - 1 for v in values if v > N)


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
    return max(map(abs, _tester(datum).root_values(list(map(sub, ax, ay))))) <= (r1 - r2) * N
