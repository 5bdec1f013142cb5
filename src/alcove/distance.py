"""Wall-separation and simplicial metrics on apartment vertices.

The wall metric between distinct vertices is one plus the largest
number of walls from a single parallel class strictly separating them;
for a root alpha the class contributes the number of integers strictly
between alpha(x) and alpha(y).  The simplicial metric is the graph
distance in the 1-skeleton, where adjacency is wall distance one, so
a point query answers 0 and 1 without a search.

The breadth-first search takes a vertex's neighbours from the link of
its alcove corner: the orbit of the other corners under the
reflections in the walls through that corner, mapped back through the
linear part of the fold.  Each residue class modulo the scale is
generated once per search; E6 and E7 distances run interactively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, floor
from operator import add, mul, sub
from typing import Iterator

from .apartment import (
    DEFAULT_FOLD_LIMIT,
    Point,
    VertexSet,
    _Budget,
    _fold,
    _grid_coords,
    _make_vertex_set,
    _tester,
    _walk,
    as_point,
)
from .cartan import Root, RootDatum, eval_root, require_positive_root
from .errors import NotAVertexError, SearchBudgetError, require_int


@dataclass(frozen=True)
class DistanceReport:
    """Wall distance with the first maximizing root in canonical order."""

    d: int
    witness_root: Root | None
    wall_count: int


def integers_strictly_between(a, b) -> int:
    a, b = Fraction(a), Fraction(b)
    lo, hi = (a, b) if a <= b else (b, a)
    return max(0, ceil(hi) - floor(lo) - 1)


def wall_count(datum: RootDatum, x, y, alpha) -> int:
    """Walls of the parallel class of alpha strictly separating x and y."""
    alpha = require_positive_root(datum, alpha)
    va = eval_root(datum, alpha, as_point(datum, x))
    vb = eval_root(datum, alpha, as_point(datum, y))
    return integers_strictly_between(va, vb)


def _between_scaled(a: int, b: int, scale: int) -> int:
    """Multiples of scale strictly between two integers."""
    lo, hi = (a, b) if a <= b else (b, a)
    return max(0, (hi - 1) // scale - lo // scale)


def _vertex_scaled(datum: RootDatum, x, check: bool) -> tuple[int, ...]:
    point = as_point(datum, x)
    a = _grid_coords(point, datum.scale)
    if a is None or (check and not _tester(datum).scaled(a, datum.scale)):
        raise NotAVertexError(f"{point} is not a vertex")
    return a


def _wall_distance_scaled(
    datum: RootDatum, ax: tuple[int, ...], ay: tuple[int, ...]
) -> tuple[int, Root | None, int]:
    if ax == ay:
        return 0, None, 0
    scale = datum.scale
    best = -1
    witness: Root | None = None
    for root in datum.positive_roots:
        va = sum(c * v for c, v in zip(root, ax))
        vb = sum(c * v for c, v in zip(root, ay))
        k = _between_scaled(va, vb, scale)
        if k > best:
            best = k
            witness = root
    return 1 + best, witness, best


def wall_distance(datum: RootDatum, x, y, *, check: bool = True) -> DistanceReport:
    ax = _vertex_scaled(datum, x, check)
    ay = _vertex_scaled(datum, y, check)
    d, witness, count = _wall_distance_scaled(datum, ax, ay)
    return DistanceReport(d=d, witness_root=witness, wall_count=count)


def adjacent(datum: RootDatum, x, y, *, check: bool = True) -> bool:
    return wall_distance(datum, x, y, check=check).d == 1


def iter_wall_ball_points(
    datum: RootDatum, center, r: int, *, budget: int | None = None, check: bool = True
) -> Iterator[Point]:
    """Vertices within wall distance r of center, unordered.

    Candidates come from the coordinate box of half-width r: any root
    value differing by more than r forces more than r-1 separating
    walls.
    """
    require_int(r, "radius must be a nonnegative integer", 0)
    ac = _vertex_scaled(datum, center, check)
    scale = datum.scale

    def region(denom: int) -> tuple:
        step = scale // denom
        return [(-((r * scale - v) // step), (v + r * scale) // step) for v in ac], None

    pos = datum.positive_roots
    center_vals = [sum(c * v for c, v in zip(root, ac)) for root in pos]
    for a in _walk(datum, region, _Budget(budget)):
        if a == ac or (
            r >= 1
            and all(
                _between_scaled(cv, sum(c * v for c, v in zip(root, a)), scale) <= r - 1
                for cv, root in zip(center_vals, pos)
            )
        ):
            yield tuple(Fraction(v, scale) for v in a)


def apartment_ball(
    datum: RootDatum, center, r: int, *, budget: int | None = None, check: bool = True
) -> VertexSet:
    """All vertices at wall distance at most r from center."""
    return _make_vertex_set(
        datum, iter_wall_ball_points(datum, center, r, budget=budget, check=check)
    )


def _corners(datum: RootDatum) -> list[tuple[int, ...]]:
    """The corners v_0..v_d of the fundamental alcove over datum.scale."""
    N, d = datum.scale, datum.rank
    return [(0,) * d] + [
        tuple(N // c if j == i else 0 for j in range(d))
        for i, c in enumerate(datum.highest_root_coeffs)
    ]


def _link(
    datum: RootDatum, corner: tuple[int, ...], state: _Budget
) -> list[tuple[int, ...]]:
    """Sorted offsets from an alcove corner to its neighbours.

    The stabilizer of the corner in the affine Weyl group is generated
    by the reflections in the alcove walls through it, and the
    neighbours are the orbit of the other corners under it.  Each wall
    is a functional f = w.p - k and reflects p to p - f(p) col, the
    linear step _fold applies.  Spends one unit of state per reflection
    image: rank times the number of neighbours.
    """
    N, d = datum.scale, datum.rank
    cartan = datum.cartan
    walls = [
        (tuple(int(k == j) for k in range(d)), 0, tuple(row[j] for row in cartan))
        for j in range(d)
    ]
    walls.append((datum.highest_root_coeffs, N, datum.alpha0_coroot_row))
    through = [wall for wall in walls if sum(map(mul, wall[0], corner)) == wall[1]]
    orbit = {c for c in _corners(datum) if c != corner}
    todo = list(orbit)
    while todo:
        p = todo.pop()
        state.spend(len(through))
        for w, k, col in through:
            f = sum(map(mul, w, p)) - k
            if f:
                q = tuple([pv - f * cv for pv, cv in zip(p, col)])
                if q not in orbit:
                    orbit.add(q)
                    todo.append(q)
    return sorted(tuple(map(sub, p, corner)) for p in orbit)


def _inverse(m: list[list[int]]) -> list[list[int]]:
    """Inverse of an integer matrix of determinant +-1, such as the
    linear part of a fold, by fraction-free Gauss-Jordan elimination:
    every division is exact, and the last pivot is the determinant."""
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
    return [[v // prev for v in row[d:]] for row in rows]


def _neighbor_offsets(
    datum: RootDatum,
    a: tuple[int, ...],
    cache: dict,
    state: _Budget,
) -> list[tuple[int, ...]]:
    """Sorted offsets to all vertices adjacent to a, keyed by a's
    residue class.

    Vertex membership and separating-wall counts only depend on the
    coordinates modulo the global scale, so the offset list is shared
    by every vertex in the same residue class.  A new class folds a
    onto its alcove corner, together with a + e_1, ..., a + e_d, which
    reads off the fold's linear part L; the corner's offsets come from
    its link (_link), and a's offsets are their images under L^-1.
    Mapping them into the new class spends one unit of state per offset.
    """
    N = datum.scale
    key = tuple([v % N for v in a])
    offsets = cache.get(key)
    if offsets is None:
        d = datum.rank
        pts = [list(a)] + [[v + (j == k) for j, v in enumerate(a)] for k in range(d)]
        _fold(datum, pts, N, DEFAULT_FOLD_LIMIT)
        corner = tuple(pts[0])
        if corner not in _corners(datum):
            raise NotAVertexError(f"{tuple(Fraction(v, N) for v in a)} is not a vertex")
        corner_key = tuple([v % N for v in corner])
        offsets = cache.get(corner_key)
        if offsets is None:
            offsets = cache[corner_key] = _link(datum, corner, state)
        if corner_key != key:
            inverse = _inverse([[p[j] - corner[j] for p in pts[1:]] for j in range(d)])
            state.spend(len(offsets))
            offsets = sorted(
                tuple([sum(map(mul, row, delta)) for row in inverse]) for delta in offsets
            )
        cache[key] = offsets
    return offsets


def _bfs(
    datum: RootDatum, start: tuple[int, ...], max_depth: int, state: _Budget
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each vertex within max_depth edges of start with its graph
    distance, in breadth-first order, start first."""
    cache: dict = {}
    seen = {start}
    frontier = [start]
    yield start, 0
    for depth in range(1, max_depth + 1):
        nxt = []
        for a in frontier:
            for delta in _neighbor_offsets(datum, a, cache, state):
                w = tuple(map(add, a, delta))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield w, depth
        frontier = nxt


def simplicial_distance(
    datum: RootDatum,
    x,
    y,
    budget: int,
    *,
    candidate_budget: int | None = None,
    check: bool = True,
) -> int:
    """Graph distance in the 1-skeleton, searched out to the budget radius.

    Adjacency is wall distance one, so an adjacent pair returns 1
    without a search.  Raises SearchBudgetError when the budget is
    exhausted first; that is distinct from unreachability, which cannot
    happen inside one apartment.  candidate_budget bounds the work as
    in simplicial_distances.
    """
    require_int(budget, "search budget must be a nonnegative integer", 0)
    ax = _vertex_scaled(datum, x, check)
    ay = _vertex_scaled(datum, y, check)
    state = _Budget(candidate_budget)
    if budget and _wall_distance_scaled(datum, ax, ay)[0] == 1:
        return 1
    for a, depth in _bfs(datum, ax, budget, state):
        if a == ay:
            return depth
    raise SearchBudgetError(f"target not reached within search radius {budget}")


def simplicial_distances(
    datum: RootDatum,
    source,
    max_depth: int,
    *,
    candidate_budget: int | None = None,
    check: bool = True,
) -> dict[Point, int]:
    """Graph distances to every vertex within max_depth of source.

    candidate_budget bounds the neighbour generation: one unit per
    reflection image in the link of each alcove corner the search meets
    (rank times the corner's degree), and one per offset mapped into
    each other residue class (its degree).  EnumerationLimitError is
    raised when that is exceeded.
    """
    require_int(max_depth, "search depth must be a nonnegative integer", 0)
    ax = _vertex_scaled(datum, source, check)
    scale = datum.scale
    point = cache(lambda v: Fraction(v, scale))  # one Fraction per numerator
    return {
        tuple(map(point, a)): depth
        for a, depth in _bfs(datum, ax, max_depth, _Budget(candidate_budget))
    }


def distance_report_to_dict(report: DistanceReport) -> dict:
    return {
        "d": report.d,
        "witness_root": list(report.witness_root) if report.witness_root else None,
        "wall_count": report.wall_count,
    }
