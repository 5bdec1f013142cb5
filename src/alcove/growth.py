"""Ball cardinality bounds as exact polynomials in a formal q.

The number of lattice points at distance <= r from the origin, counted
with the size of each point's vertex quotient over a residue field of
q elements, is sandwiched between polynomial bounds.  Everything here
stays exact: coefficients are big integers, the growth exponent is a
Fraction, and evaluation at a concrete q happens only on request.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Iterable

from .apartment import (
    Point,
    _Budget,
    _residues,
    _root_lanes,
    _sorted_walk,
    _type_counts,
    iter_scaled_alcove_vertices,
)
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

    L_j are _level_lanes's root lanes for values up to r * scale, as on rC
    every alpha(a) <= theta(a) <= r * scale, so lane k of p is alpha_k(a).
    After the level-l bias a lane's top bit says alpha(a) > l * scale, that
    is ceil(alpha(x)) > l, so the quotient exponent capped at cap counts
    those top bits over l = 1..min(cap, r) - 1 (no level exceeds r).

    The walk is the public iterator, not apartment._walk, although that
    costs a Fraction round trip per vertex: bench/spans.py counts walks
    and vertices at iter_scaled_alcove_vertices, and bench/worker.py's
    layer_metrics divides apartment.vertices by apartment.walk_s.  In the
    census and search workloads the CLI ball calls through this class
    are the only walks the tracer sees before that division, so a census
    on _walk would make a traced run of either raise ZeroDivisionError.
    The move must land in the same change as the benchmark's engine
    meters.
    """

    def __init__(self, datum: RootDatum, r: int, budget: int | None):
        require_int(r, "radius must be a nonnegative integer", 0)
        walk = iter_scaled_alcove_vertices(datum, r, budget=budget)
        self.vertices, self.points = _sorted_walk(datum.scale, walk)
        lanes, self.top, self.biases = _level_lanes(datum, r * datum.scale, r)
        self.packed = [sum(map(mul, a, lanes)) for a in self.vertices]

    def exponent_poly(self, cap: int | None) -> QPolynomial:
        """Sum of q^e over the vertices, e the quotient exponent capped at
        cap (None: uncapped)."""
        biases = self.biases if cap is None else self.biases[: cap - 1]
        return QPolynomial(Counter(_exponents(self.top, biases, self.packed)))


def _level_lanes(datum: RootDatum, bound: int, levels: int) -> tuple[list[int], int, list[int]]:
    """apartment's root lanes for root values up to bound, in 1/scale units,
    w = bit_length(bound) + 1 bits each; the mask of the lanes' top bits;
    and for each level l in 1..levels - 1 the bias 2^(w-1) - l * scale - 1
    on every lane, whose add sets a lane's top bit iff its value exceeds
    l * scale.  No value sets the top bit alone, and no lane carries."""
    w = bound.bit_length() + 1
    ones = sum(1 << w * k for k in range(len(datum.positive_roots)))
    biases = [ones * ((1 << w - 1) - l * datum.scale - 1) for l in range(1, levels)]
    return _root_lanes(datum, w), ones << w - 1, biases


def _exponents(top: int, biases: list[int], packed: list[int]) -> list[int]:
    """The capped exponent of each packed vertex: the top bits its lanes
    set over one add of each level's bias."""
    exponents = [0] * len(packed)
    for b in biases:
        exponents = list(map(add, exponents, [((p + b) & top).bit_count() for p in packed]))
    return exponents


def _coin_counts(coins: list[int], top: int) -> list[int]:
    """P(m) for m in 0..top: the y >= 0 with coins . y <= m."""
    exact = [1] + [0] * top  # y with coins . y == m
    for c in coins:
        for m in range(c, top + 1):
            exact[m] += exact[m - c]
    return list(accumulate(exact))


def _capped_census(datum: RootDatum, R: int, cap: int, budget: int | None) -> QPolynomial:
    """Sum of q^e over the vertices of RC, e the quotient exponent capped at
    cap, counted by residue classes instead of a walk.

    A vertex of RC is a = rho + N z in 1/N units (N the scale), for rho one
    of apartment's vertex residues and z >= 0 integral with marks . z <= M_rho
    = floor((R N - marks . rho) / N).  A root through a coordinate j with
    z_j >= cap has alpha(a) >= a_j >= cap N, so it passes every level below
    the cap.  So e depends only on the clip set S = {j : z_j < cap} and on
    (rho_S, z_S): it is the exponent of a' = rho + N z on S and cap N off S,
    whose root values are at most height(theta) cap N.  For each S the
    residues are grouped by rho_S, with a histogram of M_rho - cap marks(S^c);
    a clip k = z_S in [0, cap)^S then stands for W(marks_S . k) vertices, where
    W(t) = sum_M hist[M] P(M - t) and P(m) counts the y >= 0 on S^c with
    marks . y <= m, z = cap + y there.  Each (group, clip) leaf spends one
    unit of budget before its exponent is read off packed lanes."""
    N, d, marks = datum.scale, datum.rank, datum.highest_root_coeffs
    table = _residues(datum)
    live = [(rho, (R * N - h) // N) for rho, h in zip(table.residues, table.heights) if h <= R * N]
    lanes, top, biases = _level_lanes(datum, sum(marks) * cap * N, cap)
    state = _Budget(budget)
    terms: Counter[int] = Counter()
    for mask in range(1 << d):
        inside = [j for j in range(d) if mask >> j & 1]
        outside = [j for j in range(d) if not mask >> j & 1]
        spent = cap * sum(marks[j] for j in outside)
        if spent > R:
            continue
        P = _coin_counts([marks[j] for j in outside], R - spent)
        # the clips, as (marks_S . k, packed N k on S and cap N off S), by t
        clips = [(0, sum(cap * N * lanes[j] for j in outside))]
        for j in inside:
            clips = [
                (t + marks[j] * v, p + N * v * lanes[j])
                for t, p in clips
                for v in range(cap)
                if t + marks[j] * v <= R - spent
            ]
        clips.sort()
        ts = [t for t, _ in clips]
        offsets = [p for _, p in clips]
        # the residues grouped by rho_S, each group with its histogram of M - spent
        groups: dict[tuple[int, ...], Counter[int]] = {}
        for rho, M in live:
            if M >= spent:
                groups.setdefault(tuple([rho[j] for j in inside]), Counter())[M - spent] += 1
        # each leaf's (exponent, t), pooled over the groups of one histogram;
        # rho_S's lanes ride on the biases, as (p + base) + b = p + (base + b)
        pooled: dict[frozenset[tuple[int, int]], Counter[tuple[int, int]]] = {}
        inside_lanes = [lanes[j] for j in inside]
        for key, hist in groups.items():
            n = bisect_right(ts, max(hist))
            state.spend(n)
            base = sum(map(mul, key, inside_lanes))
            exponents = _exponents(top, [base + b for b in biases], offsets[:n])
            pooled.setdefault(frozenset(hist.items()), Counter()).update(zip(exponents, ts))
        for hist, pairs in pooled.items():
            ts_met = {t for _, t in pairs}
            weight = {t: sum([c * P[m - t] for m, c in hist if m >= t]) for t in ts_met}
            for (e, t), count in pairs.items():
                terms[e] += count * weight[t]
    return QPolynomial(terms)


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
    contributions only.  The lower census is a walk, the upper one a
    count by vertex residue classes that walks nothing.  The budget
    bounds each on its own: the walk spends one unit per grid leaf, the
    count one per (residue group, clip) leaf; past it either raises
    EnumerationLimitError.
    """
    require_int(R, "ball radius must be a nonnegative integer", 0)
    require_int(r, "level must be a positive integer", 1)
    lower_radius = r - R - 2
    upper_radius = 2 + (r + 1) * sum(datum.highest_root_coeffs)
    lower_poly = None
    if lower_radius >= 0:
        lower_poly = _Census(datum, lower_radius, budget).exponent_poly(None)
    upper = _capped_census(datum, upper_radius, r + 1, budget)
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
        upper_poly=gamma_polynomial(datum) * upper,
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
