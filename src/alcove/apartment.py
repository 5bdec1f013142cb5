"""Affine apartment geometry in simple-root coordinates.

A point is the tuple of exact rationals t_i = alpha_i(x).  The closed
fundamental alcove is t_i >= 0 with alpha_0(x) <= 1 for the highest
root alpha_0; its corners are the origin and omega_i / c_i where c_i
are the marks.  The closed alcove is a fundamental domain for the
affine Weyl group, so a point is a vertex of type i of the simplicial
structure iff it folds onto corner i; every vertex of type i sits on
the (1/c_i)-grid, which is what the enumerators exploit.  Integer
shifts of the coordinates (coweight translations) map vertices to
vertices and permute their types by the shift's class in P^v/Q^v, so
one typing per residue class modulo the scale gives the type of every
vertex in the class, and one more per (class, type) gives the shift.
A residue is typed by one rule, a certificate of three invariants of
the affine Weyl group (the number of positive roots integral at the
point, its exact denominator and a class in P^v/Q^v), read off the few
grid points of the closed alcove when the datum's tester is built: it
is folded only when the certificate's entry is ambiguous, and
invariants no alcove point has are no vertex's.  Since the integral
count is such an invariant, the grid walk drops a leaf whose count is
no corner's before it builds the leaf's tuple.  The count is read on
the grid of a maximal denominator c (a mark that divides no other), of
step 1/c, which holds every vertex whose type's mark divides c; a point
on no such grid is no vertex.  At
z / c, a root alpha is integral iff alpha(z mod c) = 0 mod c, a value of
at most height(theta) (c - 1), one byte on every exceptional type: the
values of all roots pack into byte lanes of one integer, and one
256-byte table per c counts the lanes it divides.  Elsewhere root
values come from a height chain: past the simple roots, each positive
root is an earlier one plus a simple root, one add each.

Inside the library a point is an integer tuple of numerators over one
common denominator: datum.scale (the lcm of the marks) for vertices,
the lcm of the input denominators for arbitrary rational points.  The
grid walker, the vertex test and the fold all work on those integers;
Fraction appears only at the public edge, where arguments come in and
results go out.  Every public walker yields through one helper that
reads a walk's Fractions from a memo of its own, so a walk builds one
Fraction per distinct numerator it yields, and a walk's points are
sorted on their integer tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul, sub
from typing import Callable, Iterable, Iterator

from .cartan import Point, RootDatum, _inverse, _per_datum, as_point
from .errors import (
    EnumerationLimitError,
    FoldLimitError,
    NotAVertexError,
    ValidationError,
    _rational,
    require_int,
)

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "VertexSet",
    "alcove_vertex",
    "enumerate_box_vertices",
    "enumerate_scaled_alcove_vertices",
    "fold_pair",
    "fold_to_alcove",
    "in_scaled_alcove",
    "is_special",
    "is_vertex",
    "iter_box_vertices",
    "iter_scaled_alcove_vertices",
    "origin",
    "scaled_coords",
    "vertex_type",
]

DEFAULT_ENUMERATION_BUDGET = 100_000_000
DEFAULT_FOLD_LIMIT = 1_000_000


def origin(datum: RootDatum) -> Point:
    return tuple(Fraction(0) for _ in range(datum.rank))


def alcove_vertex(datum: RootDatum, i: int) -> Point:
    """Corner v_i of the fundamental alcove; v_0 is the origin."""
    message = f"alcove corner index must lie in 0..{datum.rank}"
    if require_int(i, message, 0) > datum.rank:
        raise ValidationError(message)
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
    for t in point:
        if scale % t.denominator:
            return None
    return _scaled(point, scale)


def _scaled(point: Point, scale: int) -> tuple[int, ...]:
    """Numerators of point over scale, which its denominators divide."""
    return tuple([t.numerator * (scale // t.denominator) for t in point])


def _numerators(points: tuple[Point, ...]) -> tuple[list[list[int]], int]:
    """The points as integer lists over the lcm N of their denominators."""
    N = lcm(*(t.denominator for p in points for t in p))
    return [list(_scaled(p, N)) for p in points], N


class _VertexTester:
    """The vertex test and vertex type of one datum.

    The memo maps each residue key (the coordinates modulo the scale)
    met so far to the index of the corner key / scale folds onto, or
    None when it is no vertex.  A point a / scale is key / scale
    translated by the coweight lam = a // scale, whose class in P^v/Q^v
    (coweight_class) permutes the types as it acts on the extended
    diagram.  Each (class, type) shift is read from the first vertex
    met with that class and type; all are trivial when inverse_denom is
    1 (E8, F4, G2).

    A memo or shift miss is typed by the certificate alone: the
    invariants (count, den, cls) of every point of (1/c)P^v in the
    closed alcove C, for each maximal c, mapped to the corner index of
    the points with them, or _AMBIGUOUS when two such points differ in
    it.  Only an ambiguous entry is folded; invariants no such point has
    are no vertex's.  Here count is the number of positive roots
    integral at the point (None off every maximal grid), den the least
    D with D x in P^v, and cls the class of den x in P^v/Q^v.
    W_aff = W |x Q^v keeps all three: W acts on t-coordinates by integer
    matrices with integer inverses and permutes the roots, and acts
    trivially on P^v/Q^v; a Q^v translation adds integers, and den Q^v
    lies in Q^v.  Each W_aff orbit meets C once, and the fold of a
    step-1/c grid point lies in (1/c)P^v, which W_aff maps to itself,
    so it is one of the enumerated points with the same invariants.  A
    point on no maximal grid is no vertex and shares no point's count.

    Also holds the corners mapped to their indices; the height chain
    (each simple root's coordinate, then for each later root an earlier
    root's index and the simple root it adds); one screen per maximal
    denominator c, as (c, step, contrib, count): the grid's step
    scale // c; contrib[j][u] = u * lane_j for u in [0, c), where lane_j
    is _root_lanes's L_j with lanes of whole bytes, so that
    sum_j contrib[j][z_j mod c] packs alpha(z mod c) for every root
    alpha; and count, the _lane_counter of the lanes that hold multiples
    of c; the corners' integral-root counts, by which the grid walk
    screens its leaves; the inverse Cartan matrix as integer rows over
    inverse_denom = |det C|; each wall's reflection as the sparse column
    of (coordinate, coefficient) pairs it changes, simple walls first;
    and the certificate, built with the tester."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        N, d = datum.scale, datum.rank
        pos = datum.positive_roots
        index = {root: k for k, root in enumerate(pos)}
        self.simple = [root.index(1) for root in pos[:d]]
        self.chain = [
            next(
                (index[lower], i)
                for i, c in enumerate(root)
                if c and (lower := root[:i] + (c - 1,) + root[i + 1 :]) in index
            )
            for root in pos[d:]
        ]
        denoms = _maximal_denominators(datum)
        # a lane holds alpha(z) for z in [0, c)^d, at most height(theta) * (c - 1),
        # in the fewest bytes that hold that for the largest c
        width = max(1, ((sum(datum.highest_root_coeffs) * (denoms[-1] - 1)).bit_length() + 7) // 8)
        lanes = _root_lanes(datum, 8 * width)
        self.grids = []
        for c in denoms:
            contrib = [[u * lane for u in range(c)] for lane in lanes]
            self.grids.append((c, N // c, contrib, _lane_counter(c, width, len(pos))))
        self.corners = {(0,) * d: 0} | {
            tuple(N // c if j == i else 0 for j in range(d)): i + 1
            for i, c in enumerate(datum.highest_root_coeffs)
        }
        # corner i, (scale / c_i) e_i, lies on the grid of every maximal c that c_i divides
        self.corner_counts = {self.grid_count([v % N for v in c]) for c in self.corners}
        self.memo: dict[tuple[int, ...], int | None] = {}
        self.shifts: dict[tuple[tuple[int, ...], int], int] = {}
        cartan = datum.cartan
        self.inverse_rows, self.inverse_denom = _inverse(cartan)
        self.reflections = [
            [(j, cartan[j][i]) for j in range(d) if cartan[j][i]] for i in range(d)
        ] + [[(j, c) for j, c in enumerate(datum.alpha0_coroot_row) if c]]
        self.certificate: dict[tuple, int | None] = {}
        for a in self.alcove_points():
            t, key = self.corners.get(a), self.invariants(a)
            self.certificate[key] = t if self.certificate.get(key, t) == t else _AMBIGUOUS

    def root_values(self, a) -> list[int]:
        """alpha . a for every positive root alpha, in datum order."""
        v = [a[i] for i in self.simple]
        for p, i in self.chain:
            v.append(v[p] + a[i])
        return v

    def grid_count(self, key) -> int | None:
        """Positive roots taking integer values at key / scale, for a residue
        key in [0, scale)^d, read off the first maximal grid holding key;
        None when no grid holds it, so that key / scale is no vertex."""
        for _, step, contrib, count in self.grids:
            if not any([v % step for v in key]):
                return count(sum([row[v // step] for row, v in zip(contrib, key)]))
        return None

    def residue_type(self, key: tuple[int, ...]) -> int | None:
        """Type of the vertex key / scale for a residue key in [0, scale)^d,
        or None when it is no vertex: the memo's, else the certificate's,
        which is then memoized."""
        if key not in self.memo:
            self.memo[key] = self.certified_type(key)
        return self.memo[key]

    def alcove_points(self) -> list[tuple[int, ...]]:
        """The points of (1/c)P^v in the closed alcove, for each maximal
        denominator c in turn, as numerators over the scale: step n for
        the n >= 0 with marks . n <= c.  A point on several such grids
        is listed once for each."""
        points = []
        for c, step, _, _ in self.grids:
            level = [((), c)]
            for m in self.datum.highest_root_coeffs:
                level = [(n + (v,), room - m * v) for n, room in level for v in range(room // m + 1)]
            points += [tuple([v * step for v in n]) for n, _ in level]
        return points

    def coweight_class(self, lam) -> tuple[int, ...]:
        """The class in P^v/Q^v of the integer coweight lam, as
        inverse_rows . lam mod inverse_denom; empty when inverse_denom is 1."""
        D = self.inverse_denom
        return tuple([sum(map(mul, row, lam)) % D for row in self.inverse_rows]) if D > 1 else ()

    def invariants(self, a) -> tuple[int | None, int, tuple[int, ...]]:
        """(count, den, cls) of a / scale, the certificate's key: its
        integral-root count (None off every maximal grid), its exact
        denominator and the class of den a / scale in P^v/Q^v."""
        N = self.datum.scale
        den = lcm(*[N // gcd(N, v) for v in a])
        cls = self.coweight_class([v * den // N for v in a])
        return self.grid_count([v % N for v in a]), den, cls

    def certified_type(self, a) -> int | None:
        """Type of a / scale, or None when it is no vertex: the
        certificate's, or on an ambiguous entry the corner a fold of a
        lands on.  It is None for invariants no alcove point has, and for
        every integral-root count no corner has."""
        t = self.certificate.get(self.invariants(a))
        if t == _AMBIGUOUS:
            p = list(a)
            _fold(self.datum, [p], self.datum.scale)
            t = self.corners.get(tuple(p))
        return t

    def scaled(self, a) -> bool:
        """Whether a / scale is a vertex."""
        N = self.datum.scale
        return self.residue_type(tuple([v % N for v in a])) is not None

    def type_of(self, a) -> int | None:
        """Type of the vertex a / scale, or None when it is no vertex: the
        memo's type of its residue, shifted by the class of a // scale."""
        N = self.datum.scale
        i = self.residue_type(tuple([v % N for v in a]))
        if i is None or not any(cls := self.coweight_class([v // N for v in a])):
            return i
        j = self.shifts.get((cls, i))
        if j is None:
            j = self.shifts[cls, i] = self.certified_type(a)
        return j


# the certificate's entry for invariants met by points of different types
_AMBIGUOUS = -1


# the datum's one vertex tester
_tester = _per_datum(_VertexTester)


class _VertexResidues:
    """The residue classes modulo the scale of the vertices: each class's
    residue rho in [0, scale)^d, in 1/scale units, and marks . rho.

    A vertex is a W_aff image of an alcove corner, and a coroot translation
    adds integers to the coordinates, so the vertex classes are the W-orbits
    of the corners' residues.  W acts on numerators by the tester's simple
    reflections, integer maps that commute with reduction mod the scale, so
    one BFS from the corners' residues under them finds every class."""

    def __init__(self, datum: RootDatum):
        N, d, tester = datum.scale, datum.rank, _tester(datum)
        reflections = tester.reflections[:d]
        seen = {tuple([v % N for v in corner]) for corner in tester.corners}
        todo = list(seen)
        while todo:
            x = todo.pop()
            for k, column in enumerate(reflections):
                if xk := x[k]:
                    y = list(x)
                    for j, c in column:
                        y[j] = (y[j] - xk * c) % N
                    if (y := tuple(y)) not in seen:
                        seen.add(y)
                        todo.append(y)
        self.residues = list(seen)
        marks = datum.highest_root_coeffs
        self.heights = [sum(map(mul, marks, rho)) for rho in self.residues]


# the datum's one table of vertex residues, built on first read
_residues = _per_datum(_VertexResidues)


def _root_lanes(datum: RootDatum, bits: int) -> list[int]:
    """L_j for each simple root j: its coefficient in every positive root,
    one lane of the given bits per root in datum order, lowest first, so
    that sum_j a_j L_j packs alpha(a) for every root alpha while no lane
    overflows."""
    pos = datum.positive_roots
    return [sum(root[j] << bits * k for k, root in enumerate(pos)) for j in range(datum.rank)]


def _lane_counter(c: int, width: int, lanes: int) -> Callable[[int], int]:
    """Counter of the lanes, lanes of width bytes each from the low end of
    a packed nonnegative integer below 256^(width * lanes), that hold a
    multiple of c.  It reads only each lane's low byte, which is the lane
    modulo c when the lane is one byte or c divides 256."""
    assert width == 1 or 256 % c == 0
    table = bytes([x % c for x in range(256)])
    return lambda n: n.to_bytes(width * lanes, "little")[::width].translate(table).count(0)


def _point_text(point: Iterable[Fraction]) -> str:
    """A point as error messages write it: (1/2, 0)."""
    return f"({', '.join(map(str, point))})"


def _not_a_vertex(point: Iterable[Fraction]) -> NotAVertexError:
    return NotAVertexError(f"{_point_text(point)} is not a vertex")


def _vertex_scaled(datum: RootDatum, x) -> tuple[int, ...]:
    """Numerators of the vertex x over the scale; NotAVertexError when x
    is off that grid or fails the vertex test."""
    point = as_point(datum, x)
    a = _grid_coords(point, datum.scale)
    if a is None or not _tester(datum).scaled(a):
        raise _not_a_vertex(point)
    return a


def is_vertex(datum: RootDatum, x) -> bool:
    """True iff x folds onto a corner of the fundamental alcove."""
    a = scaled_coords(datum, x)
    return a is not None and _tester(datum).scaled(a)


def is_special(datum: RootDatum, x) -> bool:
    """True iff every root takes an integer value at x: roots are integer
    combinations of the simple roots, so iff every t_i is an integer."""
    return all(t.denominator == 1 for t in as_point(datum, x))


def _fold(datum: RootDatum, pts: list[list[int]], N: int) -> int:
    """Fold pts[0] into the closed alcove in place, dragging the rest
    along; returns the number of reflections applied.

    Points are integer numerators over the common denominator N.  The
    representative is unique, so the coroot-lattice pre-translation
    below only shortens the reflection walk, to a length bounded by the
    type; the walk applies the lowest-index violated wall first (simple
    walls in order, then the affine wall of the highest root), and past
    DEFAULT_FOLD_LIMIT reflections raises FoldLimitError.  Wall w moves
    every point p to p - f(p) column_w, column_w the tester's reflection
    and f(p) = p_w on a simple wall, marks . p - N on the affine one.
    """
    d = datum.rank
    marks = datum.highest_root_coeffs
    t = pts[0]

    tester = _tester(datum)
    lattice_denom = tester.inverse_denom * N
    units = [sum(map(mul, row, t)) // lattice_denom for row in tester.inverse_rows]
    if any(units):
        shift = [N * sum(map(mul, row, units)) for row in datum.cartan]
        for p in pts:
            p[:] = map(sub, p, shift)

    steps = 0
    while True:
        for wall in range(d):
            if t[wall] < 0:
                break
        else:
            if sum(map(mul, marks, t)) <= N:
                return steps
            wall = d
        column = tester.reflections[wall]
        for p in pts:
            v = p[wall] if wall < d else sum(map(mul, marks, p)) - N
            for j, c in column:
                p[j] -= v * c
        steps += 1
        if steps > DEFAULT_FOLD_LIMIT:
            raise FoldLimitError(f"folding exceeded {DEFAULT_FOLD_LIMIT} reflections")


def _folded_points(datum: RootDatum, points: tuple[Point, ...]) -> tuple[Point, ...]:
    pts, N = _numerators(points)
    _fold(datum, pts, N)
    return tuple(tuple(Fraction(v, N) for v in p) for p in pts)


def fold_to_alcove(datum: RootDatum, x) -> Point:
    """Unique representative of x in the closed fundamental alcove."""
    return _folded_points(datum, (as_point(datum, x),))[0]


def fold_pair(datum: RootDatum, x, y) -> tuple[Point, Point]:
    """Fold x into the alcove and move y by the same isometry."""
    return _folded_points(datum, (as_point(datum, x), as_point(datum, y)))


def vertex_type(datum: RootDatum, x) -> int:
    """Index in 0..d of the alcove corner the vertex folds onto."""
    return _tester(datum).type_of(_vertex_scaled(datum, x))


def _type_counts(datum: RootDatum, vertices: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """How many of the vertices, integer tuples over the scale, have each
    type 0..d."""
    counts = Counter(map(_tester(datum).type_of, vertices))
    return tuple(counts[i] for i in range(datum.rank + 1))


@dataclass(frozen=True)
class VertexSet:
    """Deterministically ordered vertices with counts per type 0..d."""

    points: tuple[Point, ...]
    per_type_counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


def _sorted_walk(
    scale: int, walk: Iterable[Point]
) -> tuple[list[tuple[int, ...]], tuple[Point, ...]]:
    """The integer tuples over scale of a walk's points, sorted, and the
    points in that order: one denominator orders the integers as it
    orders the Fraction tuples."""
    points = {_scaled(x, scale): x for x in walk}
    vertices = sorted(points)
    return vertices, tuple(map(points.__getitem__, vertices))


def _make_vertex_set(datum: RootDatum, walk: Iterable[Point]) -> VertexSet:
    vertices, points = _sorted_walk(datum.scale, walk)
    return VertexSet(points=points, per_type_counts=_type_counts(datum, vertices))


def _maximal_denominators(datum: RootDatum) -> list[int]:
    values = sorted(set(datum.highest_root_coeffs) | {1})
    return [c for c in values if not any(o != c and o % c == 0 for o in values)]


class _Fractions(dict):
    """One walk's memo of Fraction(v, scale) by numerator v, each built on
    first use; it holds only the distinct values the walk yields."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, v: int) -> Fraction:
        t = self[v] = Fraction(v, self.scale)
        return t


def _as_points(scale: int, walk: Iterable[tuple[int, ...]]) -> Iterator[Point]:
    """A walk's integer tuples over scale as points, through one memo."""
    fraction = _Fractions(scale).__getitem__
    for a in walk:
        yield tuple(map(fraction, a))


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
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    state: _Budget,
    top: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Vertices a with lo <= a <= hi, each once, as integer tuples in
    1/scale units; with top, only those with alpha_0(a) <= top.

    Each maximal denominator c's grid, of step scale // c, is walked
    within ceil(lo / step) and floor(hi / step), and top // step caps
    marks . (a / step), pruning the walk to the simplex; the marks are
    positive, so the cap needs lo = 0, as rC has.  Every grid leaf
    spends one unit of state, before the dedupe; each public walker
    hands the walk a budget of its own.  At the grid point z the walk
    holds the tester's packed values alpha(z mod c) of every root, one
    add per coordinate step, and drops a leaf whose integral-root count
    is no corner's before it builds the leaf's tuple; a new leaf that
    passes is kept when the tester's residue_type puts it on an alcove
    corner.
    """
    tester = _tester(datum)
    marks = datum.highest_root_coeffs
    N, d = datum.scale, datum.rank
    coords = [0] * d
    seen: set[tuple[int, ...]] = set()

    # walk reads the grid of the loop below: c, step, contrib and count
    def walk(j: int, room: int, packed: int) -> Iterator[tuple[int, ...]]:
        if j == d:
            state.spend()
            if count(packed) in tester.corner_counts:
                a = tuple([v * step for v in coords])
                if a not in seen and tester.residue_type(tuple([v % N for v in a])) is not None:
                    seen.add(a)
                    yield a
            return
        high = hi[j] // step
        if top is not None:
            high = min(high, room // marks[j])
        for v in range(-(-lo[j] // step), high + 1):
            coords[j] = v
            yield from walk(j + 1, room - marks[j] * v, packed + contrib[j][v % c])

    for c, step, contrib, count in tester.grids:
        yield from walk(0, 0 if top is None else top // step, 0)


def iter_scaled_alcove_vertices(
    datum: RootDatum, r: int, *, budget: int | None = None
) -> Iterator[Point]:
    """Vertices of rC, deduplicated across denominators, unordered."""
    require_int(r, "scaling factor must be a nonnegative integer", 0)
    d, top = datum.rank, r * datum.scale
    # rC lies in the cube [0, r]^d, as every mark is at least 1
    yield from _as_points(datum.scale, _walk(datum, (0,) * d, (top,) * d, _Budget(budget), top))


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
    scale = datum.scale
    box_lo = [ceil(t * scale) for t in low]
    box_hi = [floor(t * scale) for t in high]
    yield from _as_points(scale, _walk(datum, box_lo, box_hi, _Budget(budget)))


def enumerate_box_vertices(
    datum: RootDatum, lo, hi, *, budget: int | None = None
) -> VertexSet:
    return _make_vertex_set(datum, iter_box_vertices(datum, lo, hi, budget=budget))
