"""Ball cardinality bounds as exact polynomials in a formal q.

The number of lattice points at distance <= r from the origin, counted
with the size of each point's vertex quotient over a residue field of
q elements, is sandwiched between polynomial bounds.  Everything here
stays exact: coefficients are big integers, the growth exponent is a
Fraction, and evaluation at a concrete q happens only on request.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable

from .apartment import Point, _root_lanes, _sorted_walk, _type_counts, iter_scaled_alcove_vertices
from .cartan import (
    _EXCEPTIONAL_RANKS,
    _MIN_RANK,
    RootDatum,
    RootSystemType,
    build_root_datum,
    weyl_degrees,
)
from .errors import ValidationError, _items, require_int
from .qpoly import QPolynomial

__all__ = [
    "BallReport",
    "BoundsRow",
    "BoundsTable",
    "SandwichReport",
    "ball_report_to_dict",
    "ball_sum",
    "bounds_table_to_dict",
    "cind_sandwich",
    "gamma_polynomial",
    "growth_exponent",
    "max_two_rho",
    "parabolic_shift",
    "quotient_ball_sum",
    "sandwich_report_to_dict",
    "theorem_table",
]


def gamma_polynomial(datum: RootDatum) -> QPolynomial:
    """q^(number of positive roots) times the product of q^d - 1 over
    the invariant degrees d.  This is the point count of the finite
    group scheme attached to one vertex, up to the torus factor."""
    poly = QPolynomial.monomial(len(datum.positive_roots))
    for degree in weyl_degrees(datum):
        poly = poly * (QPolynomial.monomial(degree) - 1)
    return poly


def growth_exponent(datum: RootDatum) -> Fraction:
    """Largest ratio of a height-sum coefficient to the matching mark."""
    return max(
        Fraction(two_rho, mark)
        for two_rho, mark in zip(datum.two_rho_coeffs, datum.highest_root_coeffs)
    )


class _Census:
    """The sorted vertices of rC from one walk, the one pass every growth
    aggregate reads: each as its integer tuple a over datum.scale, its
    point, and one packed integer p = sum_j a_j L_j.

    L_j is apartment's root-lane layout, one lane of
    w = bit_length(r * scale) + 1 bits per root, so lane k of p is
    alpha_k(a); on rC every alpha(a) <= theta(a) <= r * scale, which
    leaves each lane's top bit clear and no lane carries.  Adding
    2^(w-1) - l * scale - 1 to every lane sets a lane's top bit iff
    alpha(a) > l * scale, that is iff ceil(alpha(x)) > l, so the quotient
    exponent capped at cap counts those top bits over l = 1..min(cap, r) - 1
    (no level exceeds r).  The walk is the public iterator, not
    apartment._walk, since bench/spans.py counts walks and vertices
    there; the move waits for engine meters.
    """

    def __init__(self, datum: RootDatum, r: int, budget: int | None):
        require_int(r, "radius must be a nonnegative integer", 0)
        N = datum.scale
        walk = iter_scaled_alcove_vertices(datum, r, budget=budget)
        self.vertices, self.points = _sorted_walk(N, walk)
        w = (r * N).bit_length() + 1
        lanes = _root_lanes(datum, w)
        self.packed = [sum(map(mul, a, lanes)) for a in self.vertices]
        ones = sum(1 << w * k for k in range(len(datum.positive_roots)))
        self.top = ones << w - 1
        self.biases = [ones * ((1 << w - 1) - l * N - 1) for l in range(1, r)]

    def exponent_poly(self, cap: int | None, packed: Iterable[int] | None = None) -> QPolynomial:
        """Sum of q^e over the vertices, or over the given packed values of
        some of them, e the quotient exponent capped at cap (None: uncapped)."""
        top = self.top
        biases = self.biases if cap is None else self.biases[: cap - 1]
        return QPolynomial(Counter(
            sum([((p + b) & top).bit_count() for b in biases])
            for p in (self.packed if packed is None else packed)
        ))


def _two_rho_max(datum: RootDatum, census: _Census) -> Fraction:
    coeffs = datum.two_rho_coeffs
    return Fraction(max(sum(map(mul, coeffs, a)) for a in census.vertices), datum.scale)


def max_two_rho(datum: RootDatum, r: int, *, budget: int | None = None) -> Fraction:
    """Maximum of the height-sum functional over the vertices of the
    r-fold dilated fundamental alcove."""
    return _two_rho_max(datum, _Census(datum, r, budget))


@dataclass(frozen=True)
class BallReport:
    """Vertex census of a dilated alcove with its cardinality bounds."""

    rstype: RootSystemType
    radius: int
    vertex_count_chamber: int
    per_type_counts: tuple[int, ...]
    lower_poly: QPolynomial
    upper_poly: QPolynomial
    gamma_poly: QPolynomial
    max_two_rho: Fraction
    chamber_vertices: tuple[Point, ...]
    census: _Census = field(compare=False, repr=False)

    def quotient_poly(self, level: int) -> QPolynomial:
        """The census with every exponent capped at level."""
        require_int(level, "cap level must be a positive integer", 1)
        return self.census.exponent_poly(level)


def ball_sum(
    datum: RootDatum, r: int, *, budget: int | None = None
) -> BallReport:
    """Sum q^e(x) over the vertices x of the r-fold dilated alcove,
    where e(x) is the uncapped quotient exponent at x.

    The sum is the chamber-sector lower bound for the vertex count of
    the radius-r ball; multiplying by the gamma polynomial gives the
    matching upper bound.
    """
    census = _Census(datum, r, budget)
    lower = census.exponent_poly(None)
    gamma = gamma_polynomial(datum)
    return BallReport(
        rstype=datum.rstype,
        radius=r,
        vertex_count_chamber=len(census.vertices),
        per_type_counts=_type_counts(datum, census.vertices),
        lower_poly=lower,
        upper_poly=gamma * lower,
        gamma_poly=gamma,
        max_two_rho=_two_rho_max(datum, census),
        chamber_vertices=census.points,
        census=census,
    )


def quotient_ball_sum(
    datum: RootDatum, r: int, r_prime: int, *, budget: int | None = None
) -> QPolynomial:
    """Same census with every exponent capped at level r_prime."""
    require_int(r_prime, "cap level must be a positive integer", 1)
    return _Census(datum, r, budget).exponent_poly(r_prime)


def parabolic_shift(datum: RootDatum, levi: Iterable[int]) -> int:
    """Number of positive roots supported outside a standard Levi.

    The Levi is given by 1-based simple root indices; the result is the
    depth shift picked up under parabolic induction from it.
    """
    chosen: set[int] = set()
    for index in _items(levi, "a list of indices"):
        require_int(index, f"index {index!r} is not an integer")
        if not 1 <= index <= datum.rank:
            raise ValidationError(
                f"index {index} out of range 1..{datum.rank}"
            )
        chosen.add(index - 1)
    return sum(
        any(c and j not in chosen for j, c in enumerate(root)) for root in datum.positive_roots
    )


@dataclass(frozen=True)
class BoundsRow:
    rstype: RootSystemType
    rank: int
    num_positive_roots: int
    growth_exponent: Fraction
    cdim_lower: int
    cdim_upper: int


@dataclass(frozen=True)
class BoundsTable:
    rows: tuple[BoundsRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


def _table_row(rstype: RootSystemType) -> BoundsRow:
    datum = build_root_datum(rstype)
    exponent = growth_exponent(datum)
    return BoundsRow(
        rstype=rstype,
        rank=rstype.rank,
        num_positive_roots=len(datum.positive_roots),
        growth_exponent=exponent,
        cdim_lower=-(-exponent.numerator // exponent.denominator),
        cdim_upper=len(datum.positive_roots),
    )


def theorem_table(max_classical_rank: int = 8) -> BoundsTable:
    """One row per irreducible type: classical families up to the given
    rank, then the five exceptional types."""
    require_int(max_classical_rank, "classical rank bound must be an integer >= 2", 2)
    ranks = {f: range(least, max_classical_rank + 1) for f, least in _MIN_RANK.items()}
    ranks |= _EXCEPTIONAL_RANKS
    types = [RootSystemType(family, d) for family, rs in ranks.items() for d in rs]
    return BoundsTable(rows=tuple(_table_row(t) for t in types))


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided polynomial bound for a level-r index sum at radius R."""

    rstype: RootSystemType
    big_radius: int
    level: int
    lower_radius: int
    lower_divisor: int
    lower_poly: QPolynomial | None
    lower_empty: bool
    upper_radius: int
    upper_level: int
    upper_poly: QPolynomial
    upper_depth_zero_only: bool


def cind_sandwich(
    datum: RootDatum, R: int, r: int, *, budget: int | None = None
) -> SandwichReport:
    """Sandwich for the sum of level-r indices over the radius-R ball.

    Lower bound: the plain census at radius r - R - 2, divided by
    rank + 1 (empty when that radius is negative).  Upper bound: the
    gamma polynomial times the level-(r+1) capped census at radius
    2 + (r+1) * (sum of the highest root marks); it counts depth-zero
    contributions only.
    """
    require_int(R, "ball radius must be a nonnegative integer", 0)
    require_int(r, "level must be a positive integer", 1)
    lower_radius = r - R - 2
    upper_radius = 2 + (r + 1) * sum(datum.highest_root_coeffs)
    # one walk at the upper radius: a vertex lies in the lower polytope iff
    # marks . a, its value at the highest root, is at most lower_radius * scale
    census = _Census(datum, upper_radius, budget)
    marks, bound = datum.highest_root_coeffs, lower_radius * datum.scale
    lower = [p for a, p in zip(census.vertices, census.packed) if sum(map(mul, marks, a)) <= bound]
    lower_poly = census.exponent_poly(None, lower) if lower_radius >= 0 else None
    return SandwichReport(
        rstype=datum.rstype,
        big_radius=R,
        level=r,
        lower_radius=lower_radius,
        lower_divisor=datum.rank + 1,
        lower_poly=lower_poly,
        lower_empty=lower_poly is None,
        upper_radius=upper_radius,
        upper_level=r + 1,
        upper_poly=gamma_polynomial(datum) * census.exponent_poly(r + 1),
        upper_depth_zero_only=True,
    )


def _poly_dict(poly: QPolynomial) -> dict:
    return {"terms": poly.to_serializable(), "rendered": poly.render()}


def ball_report_to_dict(report: BallReport) -> dict:
    return {
        "type": str(report.rstype),
        "radius": report.radius,
        "vertex_count_chamber": report.vertex_count_chamber,
        "per_type_counts": list(report.per_type_counts),
        "max_two_rho": str(report.max_two_rho),
        "gamma": _poly_dict(report.gamma_poly),
        "lower": _poly_dict(report.lower_poly),
        "upper": _poly_dict(report.upper_poly),
        "chamber_vertices": [
            [str(t) for t in point] for point in report.chamber_vertices
        ],
    }


def bounds_table_to_dict(table: BoundsTable) -> dict:
    return {
        "rows": [
            {
                "type": str(row.rstype),
                "rank": row.rank,
                "num_positive_roots": row.num_positive_roots,
                "growth_exponent": str(row.growth_exponent),
                "cdim_lower": row.cdim_lower,
                "cdim_upper": row.cdim_upper,
            }
            for row in table.rows
        ]
    }


def sandwich_report_to_dict(report: SandwichReport) -> dict:
    return {
        "type": str(report.rstype),
        "big_radius": report.big_radius,
        "level": report.level,
        "lower": {
            "radius": report.lower_radius,
            "divisor": report.lower_divisor,
            "empty": report.lower_empty,
            "poly": None if report.lower_poly is None else _poly_dict(report.lower_poly),
        },
        "upper": {
            "radius": report.upper_radius,
            "level": report.upper_level,
            "depth_zero_only": report.upper_depth_zero_only,
            "poly": _poly_dict(report.upper_poly),
        },
    }
