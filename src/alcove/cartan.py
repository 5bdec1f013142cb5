"""Exact root-system data for the irreducible types A through G.

Roots are integer coefficient vectors in the simple-root basis, simple
roots numbered in the Bourbaki convention (see the numbering table in the
README).  Positive roots are the closure of the simple roots under
height-raising simple reflections, never read off a table; the classical
closed forms live in the tests as cross-checks.  The highest root's
coroot row is one pairing per simple root, scaled by its norm.  All
arithmetic is exact: Python integers and ``fractions.Fraction``.

The point and root checks live here too: as_point reads exact coordinates
and _root integer coefficients, one per simple root.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import TypeVar

from .errors import (
    DimensionMismatchError,
    InvalidTypeError,
    NotARootError,
    ValidationError,
    _items,
    _rational,
    require_int,
)

__all__ = [
    "Point",
    "Root",
    "RootDatum",
    "RootSystemType",
    "as_point",
    "build_root_datum",
    "cartan_matrix",
    "eval_root",
    "parse_type",
    "positive_root_count",
    "validate_type",
    "weyl_degrees",
]

Root = tuple[int, ...]
Point = tuple[Fraction, ...]
_T = TypeVar("_T")

FAMILIES = tuple("ABCDEFG")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

_TYPE_RE = re.compile(r"^([A-G])(\d{1,3})$")


@dataclass(frozen=True, order=True)
class RootSystemType:
    """Family letter plus rank, e.g. G2 or B7."""

    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def validate_type(rstype: RootSystemType) -> None:
    """Raise InvalidTypeError unless rstype is a RootSystemType whose
    family/rank pair names a system; D3 is refused, as it duplicates A3
    under relabeling."""
    if not isinstance(rstype, RootSystemType):
        raise InvalidTypeError(f"a {type(rstype).__name__} is not a RootSystemType")
    family, rank = rstype.family, rstype.rank
    if family not in FAMILIES:
        raise InvalidTypeError(f"unknown family {family!r}")
    try:
        require_int(rank, f"rank must be a positive integer, got {rank!r}", 1)
    except ValidationError as err:
        raise InvalidTypeError(str(err)) from None
    if family in _EXCEPTIONAL_RANKS:
        if rank not in _EXCEPTIONAL_RANKS[family]:
            raise InvalidTypeError(f"{family}{rank} is not a root system")
        return
    minimum = _MIN_RANK[family]
    if rank < minimum:
        raise InvalidTypeError(
            f"{family}{rank} is not supported (family {family} needs rank >= {minimum})"
        )


def parse_type(text: str) -> RootSystemType:
    """Parse a label like "A7" or "G2" into a validated RootSystemType."""
    if not isinstance(text, str):
        raise InvalidTypeError(f"a {type(text).__name__} is not a root-system label")
    match = _TYPE_RE.match(text.strip())
    if match is None:
        raise InvalidTypeError(f"cannot parse root-system label {text!r}")
    rstype = RootSystemType(match.group(1), int(match.group(2)))
    validate_type(rstype)
    return rstype


def positive_root_count(rstype: RootSystemType) -> int:
    """Closed-form count of positive roots, used as a generation check."""
    validate_type(rstype)
    d = rstype.rank
    if rstype.family == "A":
        return d * (d + 1) // 2
    if rstype.family in ("B", "C"):
        return d * d
    if rstype.family == "D":
        return d * (d - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[
        (rstype.family, rstype.rank)
    ]


def cartan_matrix(rstype: RootSystemType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j^vee>, 0-indexed."""
    validate_type(rstype)
    d = rstype.rank
    a = [[2 if i == j else 0 for j in range(d)] for i in range(d)]

    def edge(i: int, j: int, forward: int = -1, backward: int = -1) -> None:
        a[i][j] = forward
        a[j][i] = backward

    family = rstype.family
    if family in ("A", "B", "C"):
        for i in range(d - 1):
            edge(i, i + 1)
        if family == "B":
            # alpha_d short: <alpha_{d-1}, alpha_d^vee> = -2
            edge(d - 2, d - 1, forward=-2, backward=-1)
        if family == "C":
            # alpha_d long: <alpha_d, alpha_{d-1}^vee> = -2
            edge(d - 2, d - 1, forward=-1, backward=-2)
    elif family == "D":
        for i in range(d - 2):
            edge(i, i + 1)
        edge(d - 3, d - 1)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        chain = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)][: d - 2]
        for i, j in chain + [(2, 4)]:
            edge(i - 1, j - 1)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, forward=-2, backward=-1)
        edge(2, 3)
    else:  # G2, alpha_1 short
        edge(0, 1, forward=-1, backward=-3)
    return tuple(tuple(row) for row in a)


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[Root]:
    """Closure of the simple roots under height-raising simple
    reflections, ordered by (height, lexicographic).

    Every positive root other than alpha_i is s_i of a lower positive
    root for some i (Humphreys, section 10.2); s_i raises coordinate i of
    beta by -<beta, alpha_i^vee> when that pairing is negative.
    """
    d = len(cartan)
    stack = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    known = set(stack)
    columns = list(enumerate(zip(*cartan)))
    while stack:
        beta = stack.pop()
        for i, column in columns:
            k = sum(map(mul, beta, column))
            if k < 0:
                up = beta[:i] + (beta[i] - k,) + beta[i + 1 :]
                if up not in known:
                    known.add(up)
                    stack.append(up)
    return sorted(known, key=lambda r: (sum(r), r))


def _simple_norms(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """Squared lengths of the simple roots, normalized so long roots get 2.

    Ratios propagate along Dynkin edges: A[i][j]/A[j][i] equals
    (alpha_i,alpha_i)/(alpha_j,alpha_j).
    """
    d = len(cartan)
    norm2: list[Fraction | None] = [None] * d
    norm2[0] = Fraction(2)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(d):
            if i != j and cartan[i][j] != 0 and norm2[j] is None:
                norm2[j] = norm2[i] * Fraction(cartan[j][i], cartan[i][j])
                queue.append(j)
    top = max(norm2)  # type: ignore[type-var]
    scaled = tuple(Fraction(2) * v / top for v in norm2)  # type: ignore[operator]
    return scaled


def _inverse(m) -> tuple[list[list[int]], int]:
    """(rows, D) with m^-1 = rows / D and D = |det m| > 0, for an
    invertible integer matrix m, by fraction-free Gauss-Jordan
    elimination: every division is exact, the left block ends as the
    last pivot times the identity, and that pivot is +-det m."""
    d = len(m)
    rows = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(m)]
    prev = 1
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        for r in range(d):
            f = rows[r][col]
            if r != col:
                rows[r] = [(head * v - f * w) // prev for v, w in zip(rows[r], rows[col])]
        prev = head
    sign = 1 if prev > 0 else -1
    return [[sign * v for v in row[d:]] for row in rows], abs(prev)


@dataclass(frozen=True)
class RootDatum:
    """Everything downstream geometry needs about one irreducible system.

    positive_roots are ordered by (height, lexicographic); this is the
    canonical order used for witness tie-breaks.  highest_root_coeffs
    are the marks c_i, two_rho_coeffs the coefficients c'_i of the sum
    of all positive roots.
    """

    rstype: RootSystemType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root_coeffs: Root
    two_rho_coeffs: Root
    simple_norms: tuple[Fraction, ...]
    # <alpha_j, alpha_0^vee> for the highest root alpha_0; drives the
    # affine reflection of the folding loop.
    alpha0_coroot_row: tuple[int, ...]
    # lcm of the marks; every vertex has coordinates in (1/scale) Z^d.
    scale: int

    @property
    def rank(self) -> int:
        return self.rstype.rank

    def all_roots(self) -> tuple[Root, ...]:
        """The positive roots, then their negatives in the same order;
        one tuple per datum."""
        return _all_roots(self)

    def is_root(self, coeffs: Root) -> bool:
        return _root(self, coeffs) in _root_index(self)


def _per_datum(build: Callable[[RootDatum], _T]) -> Callable[[RootDatum], _T]:
    """build made to run once per datum, on first read: its result is
    kept in the datum's instance dict under build's name, as
    functools.cached_property would, outside the dataclass fields."""
    name = build.__name__

    def cached(datum: RootDatum) -> _T:
        value = datum.__dict__.get(name)
        if value is None:
            value = datum.__dict__[name] = build(datum)
        return value

    return cached


@_per_datum
def _all_roots(datum: RootDatum) -> tuple[Root, ...]:
    return datum.positive_roots + tuple(tuple(-c for c in r) for r in datum.positive_roots)


@_per_datum
def _root_index(datum: RootDatum) -> dict[Root, int]:
    """Each root's place in all_roots(): the positive roots take the
    places below len(positive_roots)."""
    return {root: k for k, root in enumerate(datum.all_roots())}


@_per_datum
def _integer_inverse(datum: RootDatum) -> tuple[list[list[int]], int]:
    """(rows, |det C|) with C^-1 = rows / |det C| for the Cartan matrix C."""
    return _inverse(datum.cartan)


def as_point(datum: RootDatum, values: Iterable) -> Point:
    """values as exact coordinates t_i = alpha_i(x), one per simple root."""
    # text would be read character by character, sets and mappings in no fixed order;
    # a plain tuple or list is none of these, so it skips the slower ABC checks
    plain = type(values) in (tuple, list)
    if not plain and isinstance(values, (str, bytes, bytearray, Set, Mapping)):
        raise ValidationError(f"a {type(values).__name__} is not a point")
    point = tuple(map(_rational, _items(values, "a point")))
    if len(point) != datum.rank:
        raise DimensionMismatchError(f"expected {datum.rank} coordinates, got {len(point)}")
    return point


def _coefficients(coeffs: Iterable) -> Root:
    """coeffs as integer root coefficients; neither their number nor
    their being a root is checked."""
    message = "root coefficients must be integers"
    return tuple([require_int(c, message) for c in _items(coeffs, "a root")])


def _root(datum: RootDatum, coeffs: Iterable) -> Root:
    """coeffs as integer coefficients, one per simple root; not checked to be a root."""
    root = _coefficients(coeffs)
    if len(root) != datum.rank:
        raise DimensionMismatchError(f"expected {datum.rank} root coefficients, got {len(root)}")
    return root


def build_root_datum(rstype: RootSystemType) -> RootDatum:
    """Generate the full datum for one type; raises InvalidTypeError first,
    from cartan_matrix."""
    cartan = cartan_matrix(rstype)
    d = rstype.rank
    positives = _generate_positive_roots(cartan)
    expected = positive_root_count(rstype)
    if len(positives) != expected:
        raise AssertionError(
            f"closure produced {len(positives)} positive roots for {rstype}, expected {expected}"
        )
    highest = positives[-1]
    if not all(
        all(h >= r for h, r in zip(highest, root)) for root in positives
    ):
        raise AssertionError("highest root fails to dominate some positive root")
    two_rho = tuple(sum(root[i] for root in positives) for i in range(d))
    norms = _simple_norms(cartan)

    # <alpha_j, alpha_0^vee> = <alpha_0, alpha_j^vee> |alpha_j|^2 / |alpha_0|^2,
    # and |alpha_0|^2 = 2 because the highest root is long.
    alpha0_row = [
        sum(h * row[j] for h, row in zip(highest, cartan)) * norms[j] / 2 for j in range(d)
    ]
    if any(p.denominator != 1 for p in alpha0_row):
        raise AssertionError("coroot pairing with the highest root is not integral")

    return RootDatum(
        rstype=rstype,
        cartan=cartan,
        positive_roots=tuple(positives),
        highest_root_coeffs=highest,
        two_rho_coeffs=two_rho,
        simple_norms=norms,
        alpha0_coroot_row=tuple(map(int, alpha0_row)),
        scale=lcm(*highest),
    )


def eval_root(datum: RootDatum, root: Root, point) -> Fraction:
    """alpha(x) = sum of coefficients times coordinates t_i = alpha_i(x)."""
    return sum(map(mul, _root(datum, root), as_point(datum, point)), Fraction(0))


def require_positive_root(datum: RootDatum, root: Root) -> Root:
    root, n = _root(datum, root), len(datum.positive_roots)
    if _root_index(datum).get(root, n) >= n:
        raise NotARootError(f"{root} is not a positive root of {datum.rstype}")
    return root


def weyl_degrees(datum: RootDatum) -> tuple[int, ...]:
    """Degrees of the Weyl group, ascending.

    The multiset of heights of the positive roots forms a partition
    whose dual partition is the multiset of exponents; degrees are the
    exponents plus one.
    """
    heights = [sum(root) for root in datum.positive_roots]
    max_height = max(heights)
    count_at = [0] * (max_height + 1)
    for h in heights:
        count_at[h] += 1
    exponents = []
    for j in range(1, count_at[1] + 1):
        exponents.append(sum(1 for k in range(1, max_height + 1) if count_at[k] >= j))
    exponents.sort()
    return tuple(e + 1 for e in exponents)

