"""Wall-separation and simplicial metrics on apartment vertices.

The wall metric between distinct vertices is one plus the largest
number of walls from a single parallel class strictly separating them;
for a root alpha the class contributes the number of integers strictly
between alpha(x) and alpha(y).  The simplicial metric is the graph
distance in the 1-skeleton, where adjacency is wall distance one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Iterator

from .apartment import (
    Point,
    VertexSet,
    _Budget,
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


def _wall_ball(
    datum: RootDatum, ac: tuple[int, ...], r: int, state: _Budget
) -> Iterator[tuple[int, ...]]:
    """Vertices within wall distance r of the vertex ac, ac included,
    as integer tuples over datum.scale, unordered.

    Candidates come from the coordinate box of half-width r: any root
    value differing by more than r forces more than r-1 separating
    walls.
    """
    scale = datum.scale

    def region(denom: int) -> tuple:
        step = scale // denom
        return [(-((r * scale - v) // step), (v + r * scale) // step) for v in ac], None

    pos = datum.positive_roots
    center_vals = [sum(c * v for c, v in zip(root, ac)) for root in pos]
    for a in _walk(datum, region, state):
        if a == ac or (
            r >= 1
            and all(
                _between_scaled(cv, sum(c * v for c, v in zip(root, a)), scale) <= r - 1
                for cv, root in zip(center_vals, pos)
            )
        ):
            yield a


def iter_wall_ball_points(
    datum: RootDatum, center, r: int, *, budget: int | None = None, check: bool = True
) -> Iterator[Point]:
    """Vertices within wall distance r of center, unordered."""
    require_int(r, "radius must be a nonnegative integer", 0)
    ac = _vertex_scaled(datum, center, check)
    scale = datum.scale
    for a in _wall_ball(datum, ac, r, _Budget(budget)):
        yield tuple(Fraction(v, scale) for v in a)


def apartment_ball(
    datum: RootDatum, center, r: int, *, budget: int | None = None, check: bool = True
) -> VertexSet:
    """All vertices at wall distance at most r from center."""
    return _make_vertex_set(
        datum, iter_wall_ball_points(datum, center, r, budget=budget, check=check)
    )


def _neighbor_offsets(
    datum: RootDatum,
    a: tuple[int, ...],
    cache: dict,
    state: _Budget,
) -> list[tuple[int, ...]]:
    """Offsets to all vertices adjacent to a, keyed by a's residue class.

    The neighbours are the radius-1 wall ball around a, less a itself.
    Vertex membership and separating-wall counts only depend on the
    coordinates modulo the global scale, so the offset list can be
    shared by every vertex in the same residue class.
    """
    key = tuple(v % datum.scale for v in a)
    offsets = cache.get(key)
    if offsets is None:
        offsets = cache[key] = sorted(
            tuple(wv - av for wv, av in zip(w, a))
            for w in _wall_ball(datum, a, 1, state)
            if w != a
        )
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
                w = tuple(av + dv for av, dv in zip(a, delta))
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

    Raises SearchBudgetError when the budget is exhausted first; that
    is distinct from unreachability, which cannot happen inside one
    apartment.
    """
    require_int(budget, "search budget must be a nonnegative integer", 0)
    ax = _vertex_scaled(datum, x, check)
    ay = _vertex_scaled(datum, y, check)
    for a, depth in _bfs(datum, ax, budget, _Budget(candidate_budget)):
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
    """Graph distances to every vertex within max_depth of source."""
    require_int(max_depth, "search depth must be a nonnegative integer", 0)
    ax = _vertex_scaled(datum, source, check)
    scale = datum.scale
    return {
        tuple(Fraction(v, scale) for v in a): depth
        for a, depth in _bfs(datum, ax, max_depth, _Budget(candidate_budget))
    }


def distance_report_to_dict(report: DistanceReport) -> dict:
    return {
        "d": report.d,
        "witness_root": list(report.witness_root) if report.witness_root else None,
        "wall_count": report.wall_count,
    }
