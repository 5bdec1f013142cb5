"""Ball cardinality bounds as exact polynomials in a formal q.

The number of lattice points at distance <= r from the origin, counted
with the size of each point's vertex quotient over a residue field of
q elements, is sandwiched between polynomial bounds.  Everything here
stays exact: coefficients are big integers, the growth exponent is a
Fraction, and evaluation at a concrete q happens only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .apartment import Point, _corner_type, _scaled, iter_scaled_alcove_vertices
from .cartan import RootDatum, RootSystemType, build_root_datum, weyl_degrees
from .errors import ValidationError, require_int
from .moyprasad import _capped_exponent
from .qpoly import QPolynomial


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


def _chamber_vertices(
    datum: RootDatum, r: int, budget: int | None
) -> list[tuple[tuple[int, ...], Point]]:
    """The vertices of rC, each as its integer tuple in 1/scale units
    and as its point, in the walk's order.

    Each census is one pass of the public iterator, so a caller that
    wraps it (bench/spans.py) sees every walk of the polytope.
    """
    require_int(r, "radius must be a nonnegative integer", 0)
    return [
        (_scaled(x, datum.scale), x)
        for x in iter_scaled_alcove_vertices(datum, r, budget=budget)
    ]


def _two_rho_scaled(datum: RootDatum, a: tuple[int, ...]) -> int:
    return sum(c * v for c, v in zip(datum.two_rho_coeffs, a))


def max_two_rho(datum: RootDatum, r: int, *, budget: int | None = None) -> Fraction:
    """Maximum of the height-sum functional over the vertices of the
    r-fold dilated fundamental alcove."""
    values = [_two_rho_scaled(datum, a) for a, _ in _chamber_vertices(datum, r, budget)]
    return Fraction(max(values, default=0), datum.scale)


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


def ball_sum(
    datum: RootDatum, r: int, *, budget: int | None = None
) -> BallReport:
    """Sum q^e(x) over the vertices x of the r-fold dilated alcove,
    where e(x) is the uncapped quotient exponent at x.

    The sum is the chamber-sector lower bound for the vertex count of
    the radius-r ball; multiplying by the gamma polynomial gives the
    matching upper bound.
    """
    vertices = sorted(_chamber_vertices(datum, r, budget))
    scale = datum.scale
    terms: dict[int, int] = {}
    type_counts = [0] * (datum.rank + 1)
    best = 0
    for a, _ in vertices:
        e = _capped_exponent(datum, a, scale, None)
        terms[e] = terms.get(e, 0) + 1
        type_counts[_corner_type(datum, list(a), scale)] += 1
        best = max(best, _two_rho_scaled(datum, a))
    lower = QPolynomial(terms)
    gamma = gamma_polynomial(datum)
    return BallReport(
        rstype=datum.rstype,
        radius=r,
        vertex_count_chamber=len(vertices),
        per_type_counts=tuple(type_counts),
        lower_poly=lower,
        upper_poly=gamma * lower,
        gamma_poly=gamma,
        max_two_rho=Fraction(best, scale),
        chamber_vertices=tuple(x for _, x in vertices),
    )


def quotient_ball_sum(
    datum: RootDatum, r: int, r_prime: int, *, budget: int | None = None
) -> QPolynomial:
    """Same census with every exponent capped at level r_prime."""
    require_int(r, "radius must be a nonnegative integer", 0)
    require_int(r_prime, "cap level must be a positive integer", 1)
    terms: dict[int, int] = {}
    for a, _ in _chamber_vertices(datum, r, budget):
        e = _capped_exponent(datum, a, datum.scale, r_prime)
        terms[e] = terms.get(e, 0) + 1
    return QPolynomial(terms)


def parabolic_shift(datum: RootDatum, levi: Iterable[int]) -> int:
    """Number of positive roots supported outside a standard Levi.

    The Levi is given by 1-based simple root indices; the result is the
    depth shift picked up under parabolic induction from it.
    """
    chosen: set[int] = set()
    for index in levi:
        require_int(index, f"index {index!r} is not an integer")
        if not 1 <= index <= datum.rank:
            raise ValidationError(
                f"index {index} out of range 1..{datum.rank}"
            )
        chosen.add(index - 1)
    count = 0
    for root in datum.positive_roots:
        if any(c and j not in chosen for j, c in enumerate(root)):
            count += 1
    return count


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
    types: list[RootSystemType] = []
    types += [RootSystemType("A", d) for d in range(1, max_classical_rank + 1)]
    types += [RootSystemType("B", d) for d in range(2, max_classical_rank + 1)]
    types += [RootSystemType("C", d) for d in range(2, max_classical_rank + 1)]
    types += [RootSystemType("D", d) for d in range(4, max_classical_rank + 1)]
    types += [RootSystemType("E", d) for d in (6, 7, 8)]
    types.append(RootSystemType("F", 4))
    types.append(RootSystemType("G", 2))
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
    if lower_radius >= 0:
        lower_report = ball_sum(datum, lower_radius, budget=budget)
        lower_poly: QPolynomial | None = lower_report.lower_poly
        lower_empty = False
    else:
        lower_poly = None
        lower_empty = True
    upper_radius = 2 + (r + 1) * sum(datum.highest_root_coeffs)
    upper_level = r + 1
    quotient = quotient_ball_sum(datum, upper_radius, upper_level, budget=budget)
    return SandwichReport(
        rstype=datum.rstype,
        big_radius=R,
        level=r,
        lower_radius=lower_radius,
        lower_divisor=datum.rank + 1,
        lower_poly=lower_poly,
        lower_empty=lower_empty,
        upper_radius=upper_radius,
        upper_level=upper_level,
        upper_poly=gamma_polynomial(datum) * quotient,
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
