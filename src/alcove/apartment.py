"""Affine apartment geometry in simple-root coordinates.

A point is the tuple of exact rationals t_i = alpha_i(x).  The closed
fundamental alcove is t_i >= 0 with alpha_0(x) <= 1 for the highest
root alpha_0; its corners are the origin and omega_i / c_i where c_i
are the marks.  Vertices of the simplicial structure are points where
the integral roots span full rank; every vertex of type i sits on the
(1/c_i)-grid, which is what the enumerators exploit.

Inside the library a point is an integer tuple of numerators over one
common denominator: datum.scale (the lcm of the marks) for vertices,
the lcm of the input denominators for arbitrary rational points.  The
grid walker, the rank test and the fold all work on those integers;
Fraction appears only at the public edge, where arguments come in and
results go out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Callable, Iterable, Iterator

from .cartan import Root, RootDatum
from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    FoldLimitError,
    NotAVertexError,
    ValidationError,
    require_int,
)

Point = tuple[Fraction, ...]

DEFAULT_ENUMERATION_BUDGET = 100_000_000
DEFAULT_FOLD_LIMIT = 1_000_000


def _rational(value) -> Fraction:
    """An exact rational; floats and bools are refused, not converted."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise ValidationError(
            f"coordinates are not rational numbers: {value!r} is a {type(value).__name__}"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise ValidationError(f"coordinates are not rational numbers: {err}") from err


def as_point(datum: RootDatum, values: Iterable) -> Point:
    point = tuple(_rational(v) for v in values)
    if len(point) != datum.rank:
        raise DimensionMismatchError(
            f"expected {datum.rank} coordinates, got {len(point)}"
        )
    return point


def origin(datum: RootDatum) -> Point:
    return tuple(Fraction(0) for _ in range(datum.rank))


def alcove_vertex(datum: RootDatum, i: int) -> Point:
    """Corner v_i of the fundamental alcove; v_0 is the origin."""
    if not 0 <= i <= datum.rank:
        raise ValidationError(f"alcove corner index must lie in 0..{datum.rank}")
    if i == 0:
        return origin(datum)
    c = datum.highest_root_coeffs[i - 1]
    return tuple(
        Fraction(1, c) if j == i - 1 else Fraction(0) for j in range(datum.rank)
    )


def in_scaled_alcove(datum: RootDatum, r, x) -> bool:
    """Membership in rC: t_i >= 0 for all i and alpha_0(x) <= r."""
    r = _rational(r)
    if r < 0:
        raise ValidationError("scaling factor must be nonnegative")
    point = as_point(datum, x)
    if any(t < 0 for t in point):
        return False
    return sum(c * t for c, t in zip(datum.highest_root_coeffs, point)) <= r


def scaled_coords(datum: RootDatum, x) -> tuple[int, ...] | None:
    """Coordinates times the global scale, or None when x is off-grid.

    Every vertex lies on the (1/scale)-grid, so None means "not a
    vertex" for callers that only care about vertices.
    """
    return _grid_coords(as_point(datum, x), datum.scale)


def _grid_coords(point: Point, scale: int) -> tuple[int, ...] | None:
    """Numerators of point over scale, or None when off that grid."""
    if any(scale % t.denominator for t in point):
        return None
    return _scaled(point, scale)


def _scaled(point: Point, scale: int) -> tuple[int, ...]:
    """Numerators of point over scale, which its denominators divide."""
    return tuple(t.numerator * (scale // t.denominator) for t in point)


def _numerators(points: tuple[Point, ...]) -> tuple[list[list[int]], int]:
    """The points as integer lists over the lcm N of their denominators."""
    N = lcm(*(t.denominator for p in points for t in p))
    return [list(_scaled(p, N)) for p in points], N


def _int_rank(rows: list[Root], d: int) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(d):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        head = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            v = mat[r][col]
            if v:
                row = mat[r]
                ref = mat[rank]
                mat[r] = [head * a - v * b for a, b in zip(row, ref)]
        rank += 1
        if rank == d or rank == len(mat):
            break
    return rank


class _VertexTester:
    """Memoized full-rank test keyed by the set of integral roots, and
    the integer inverse Cartan matrix of the fold; one per datum."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.memo: dict[int, bool] = {}
        inverse = datum.cartan_inverse
        # cartan_inverse == inverse_rows / inverse_denom
        self.inverse_denom = lcm(*(v.denominator for row in inverse for v in row))
        self.inverse_rows = [list(_scaled(row, self.inverse_denom)) for row in inverse]

    def from_mask(self, mask: int) -> bool:
        ok = self.memo.get(mask)
        if ok is None:
            pos = self.datum.positive_roots
            rows = [pos[i] for i in range(len(pos)) if mask >> i & 1]
            ok = _int_rank(rows, self.datum.rank) == self.datum.rank
            self.memo[mask] = ok
        return ok

    def scaled(self, a: tuple[int, ...], denom: int) -> bool:
        mask = 0
        bit = 1
        for root in self.datum.positive_roots:
            if sum(c * v for c, v in zip(root, a)) % denom == 0:
                mask |= bit
            bit <<= 1
        return self.from_mask(mask)


def _tester(datum: RootDatum) -> _VertexTester:
    """The datum's one vertex tester, kept in its instance dict as
    functools.cached_property would, outside the dataclass fields."""
    tester = datum.__dict__.get("_vertex_tester")
    if tester is None:
        tester = datum.__dict__["_vertex_tester"] = _VertexTester(datum)
    return tester


def is_vertex(datum: RootDatum, x) -> bool:
    """True iff the roots taking integer values at x span full rank."""
    a = scaled_coords(datum, x)
    return a is not None and _tester(datum).scaled(a, datum.scale)


def is_special(datum: RootDatum, x) -> bool:
    """True iff every root takes an integer value at x."""
    a = scaled_coords(datum, x)
    if a is None:
        return False
    N = datum.scale
    return all(
        sum(c * v for c, v in zip(root, a)) % N == 0 for root in datum.positive_roots
    )


def _fold(datum: RootDatum, pts: list[list[int]], N: int, max_steps: int) -> None:
    """Fold pts[0] into the closed alcove in place, dragging the rest along.

    Points are integer numerators over the common denominator N.  The
    representative is unique, so the coroot-lattice pre-translation
    below only shortens the reflection walk; the walk itself applies
    the lowest-index violated wall first (simple walls in order, then
    the affine wall of the highest root).
    """
    d = datum.rank
    cartan = datum.cartan
    marks = datum.highest_root_coeffs
    u = datum.alpha0_coroot_row
    t = pts[0]

    tester = _tester(datum)
    lattice_denom = tester.inverse_denom * N
    units = [
        sum(c * v for c, v in zip(row, t)) // lattice_denom for row in tester.inverse_rows
    ]
    if any(units):
        shift = [N * sum(c * k for c, k in zip(cartan[j], units)) for j in range(d)]
        for p in pts:
            for j in range(d):
                p[j] -= shift[j]

    steps = 0
    while True:
        wall = None
        for i in range(d):
            if t[i] < 0:
                wall = i
                break
        if wall is not None:
            for p in pts:
                pi = p[wall]
                for j in range(d):
                    p[j] -= pi * cartan[j][wall]
        else:
            if sum(m * v for m, v in zip(marks, t)) <= N:
                break
            for p in pts:
                g = sum(m * v for m, v in zip(marks, p)) - N
                for j in range(d):
                    p[j] -= g * u[j]
        steps += 1
        if steps > max_steps:
            raise FoldLimitError(f"folding exceeded {max_steps} reflections")


def _folded_points(
    datum: RootDatum, points: tuple[Point, ...], max_steps: int
) -> tuple[Point, ...]:
    pts, N = _numerators(points)
    _fold(datum, pts, N, max_steps)
    return tuple(tuple(Fraction(v, N) for v in p) for p in pts)


def fold_to_alcove(datum: RootDatum, x, *, max_steps: int = DEFAULT_FOLD_LIMIT) -> Point:
    """Unique representative of x in the closed fundamental alcove."""
    return _folded_points(datum, (as_point(datum, x),), max_steps)[0]


def fold_pair(
    datum: RootDatum, x, y, *, max_steps: int = DEFAULT_FOLD_LIMIT
) -> tuple[Point, Point]:
    """Fold x into the alcove and move y by the same isometry."""
    return _folded_points(datum, (as_point(datum, x), as_point(datum, y)), max_steps)


def _corner_type(datum: RootDatum, a: list[int], N: int) -> int:
    """Index of the alcove corner that a / N folds onto; folds a in place."""
    _fold(datum, [a], N, DEFAULT_FOLD_LIMIT)
    if not any(a):
        return 0
    for i, c in enumerate(datum.highest_root_coeffs):
        if a[i] * c == N and not any(v for j, v in enumerate(a) if j != i):
            return i + 1
    raise NotAVertexError(f"{tuple(Fraction(v, N) for v in a)} is not an alcove corner")


def vertex_type(datum: RootDatum, x, *, check: bool = True) -> int:
    """Index in 0..d of the alcove corner the vertex folds onto."""
    point = as_point(datum, x)
    if check and not is_vertex(datum, point):
        raise NotAVertexError(f"{point} is not a vertex")
    pts, N = _numerators((point,))
    return _corner_type(datum, pts[0], N)


@dataclass(frozen=True)
class VertexSet:
    """Deterministically ordered vertices with counts per type 0..d."""

    points: tuple[Point, ...]
    per_type_counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


def _make_vertex_set(datum: RootDatum, points: Iterable[Point]) -> VertexSet:
    ordered = tuple(sorted(points))
    counts = [0] * (datum.rank + 1)
    for p in ordered:
        counts[_corner_type(datum, list(_scaled(p, datum.scale)), datum.scale)] += 1
    return VertexSet(points=ordered, per_type_counts=tuple(counts))


def _maximal_denominators(datum: RootDatum) -> list[int]:
    values = sorted(set(datum.highest_root_coeffs) | {1})
    return [c for c in values if not any(o != c and o % c == 0 for o in values)]


class _Budget:
    def __init__(self, budget: int | None):
        if budget is None:
            budget = DEFAULT_ENUMERATION_BUDGET
        self.limit = require_int(budget, "budget must be positive", 1)
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise EnumerationLimitError(
                f"enumeration examined more than {self.limit} candidate points"
            )


def _walk(
    datum: RootDatum,
    region: Callable[[int], tuple],
    state: _Budget,
) -> Iterator[tuple[int, ...]]:
    """Vertices on the grids of the maximal denominators, each once, as
    integer tuples in 1/scale units.

    region(denom) returns (bounds, cap) for the (1/denom)-grid: bounds
    are inclusive per-axis ranges in grid units; cap is None or
    (w, limit), adding sum(w_j a_j) <= limit with positive weights and
    nonnegative axes, which prunes the walk to the simplex it
    describes.  Every grid leaf spends one unit of state, before the
    dedupe; the caller owns that budget and may share it over several
    walks, as a search does over every residue class it meets.
    """
    tester = _tester(datum)
    d = datum.rank
    scale = datum.scale
    pos = datum.positive_roots
    cols = [[(i, root[j]) for i, root in enumerate(pos) if root[j]] for j in range(d)]
    partial = [0] * len(pos)
    coords = [0] * d
    seen: set[tuple[int, ...]] = set()

    def walk(j: int, cap_left: int) -> Iterator[tuple[int, ...]]:
        if j == d:
            state.spend()
            mask = 0
            bit = 1
            for v in partial:
                if v % denom == 0:
                    mask |= bit
                bit <<= 1
            if tester.from_mask(mask):
                a = tuple(v * step for v in coords)
                if a not in seen:
                    seen.add(a)
                    yield a
            return
        lo, hi = bounds[j]
        if cap is not None and cap[0][j] > 0:
            hi = min(hi, cap_left // cap[0][j])
        if hi < lo:
            return
        coords[j] = lo
        for idx, coeff in cols[j]:
            partial[idx] += coeff * lo
        while True:
            if cap is None:
                yield from walk(j + 1, 0)
            else:
                yield from walk(j + 1, cap_left - cap[0][j] * coords[j])
            if coords[j] == hi:
                break
            coords[j] += 1
            for idx, coeff in cols[j]:
                partial[idx] += coeff
        for idx, coeff in cols[j]:
            partial[idx] -= coeff * coords[j]
        coords[j] = 0

    # walk reads denom, step, bounds and cap of the grid being walked
    for denom in _maximal_denominators(datum):
        step = scale // denom
        bounds, cap = region(denom)
        yield from walk(0, cap[1] if cap is not None else 0)


def iter_scaled_alcove_vertices(
    datum: RootDatum, r: int, *, budget: int | None = None
) -> Iterator[Point]:
    """Vertices of rC, deduplicated across denominators, unordered."""
    require_int(r, "scaling factor must be a nonnegative integer", 0)
    marks = datum.highest_root_coeffs

    def region(denom: int) -> tuple:
        return [(0, (r * denom) // c) for c in marks], (marks, r * denom)

    scale = datum.scale
    for a in _walk(datum, region, _Budget(budget)):
        yield tuple(Fraction(v, scale) for v in a)


def enumerate_scaled_alcove_vertices(
    datum: RootDatum, r: int, *, budget: int | None = None
) -> VertexSet:
    """All vertices of the r-scaled closed alcove, with type counts."""
    return _make_vertex_set(datum, iter_scaled_alcove_vertices(datum, r, budget=budget))


def iter_box_vertices(
    datum: RootDatum, lo, hi, *, budget: int | None = None
) -> Iterator[Point]:
    """Vertices in the coordinate box [lo, hi], unordered."""
    low = as_point(datum, lo)
    high = as_point(datum, hi)
    if any(a > b for a, b in zip(low, high)):
        raise ValidationError("box bounds must satisfy lo <= hi componentwise")

    def region(denom: int) -> tuple:
        return [(ceil(a * denom), floor(b * denom)) for a, b in zip(low, high)], None

    scale = datum.scale
    for a in _walk(datum, region, _Budget(budget)):
        yield tuple(Fraction(v, scale) for v in a)


def enumerate_box_vertices(
    datum: RootDatum, lo, hi, *, budget: int | None = None
) -> VertexSet:
    return _make_vertex_set(datum, iter_box_vertices(datum, lo, hi, budget=budget))

