"""Wall-separation and simplicial metrics on apartment vertices.

The wall metric between distinct vertices is one plus the largest
number of walls from a single parallel class strictly separating them;
for a root alpha the class contributes the number of integers strictly
between alpha(x) and alpha(y).  The simplicial metric is the graph
distance in the 1-skeleton, where adjacency is wall distance one, so
a point query answers 0 and 1 without a search.  Every vertex argument
is tested, with no way to skip it: a non-vertex raises NotAVertexError.

The breadth-first search takes a vertex's neighbours from the link of
its alcove corner: the orbit of the other corners under the
reflections in the walls through that corner, mapped back through the
linear part of the fold.  Each residue class modulo the scale is
generated once per search; E6 and E7 distances run interactively.
The search keys a vertex by one integer, its offsets from the start
packed as balanced digits in the radix 2 * depth * scale + 1, exact
because an edge moves no simple-root value by more than the scale.  Its
frontier is two flat lists: the packed keys, and beside each key the
(step, class record) edge that reached it, taken as is from the link,
so a candidate neighbour costs one integer add and one dict lookup and
a discovered vertex allocates no tuple of its own.
A vertex v reached from p skips the candidates in the closed
neighbourhood of p: p was expanded a layer before v, so they are all
known, and skipping them changes no depth and no order.  Those
candidates depend only on the classes of v and p, so the kept steps
are listed once per class and incoming step.  A distance table keeps
the packed keys: a lookup packs its point, and coordinates and
Fraction keys are built only when the table is iterated.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Iterator

from .apartment import (
    VertexSet,
    _Budget,
    _as_points,
    _fold,
    _make_vertex_set,
    _not_a_vertex,
    _numerators,
    _tester,
    _vertex_scaled,
    _walk,
    scaled_coords,
)
from .cartan import Point, Root, RootDatum, _inverse, as_point, require_positive_root
from .errors import SearchBudgetError, _rational, require_int

__all__ = [
    "DistanceReport",
    "adjacent",
    "apartment_ball",
    "integers_strictly_between",
    "iter_wall_ball_points",
    "simplicial_distance",
    "simplicial_distances",
    "wall_count",
    "wall_distance",
]


@dataclass(frozen=True)
class DistanceReport:
    """Wall distance with the first maximizing root in canonical order."""

    d: int
    witness_root: Root | None
    wall_count: int


def _between_scaled(a: int, b: int, scale: int) -> int:
    """Multiples of scale strictly between two integers."""
    lo, hi = (a, b) if a <= b else (b, a)
    return max(0, (hi - 1) // scale - lo // scale)


def integers_strictly_between(a, b) -> int:
    (pa, pb), N = _numerators(((_rational(a),), (_rational(b),)))
    return _between_scaled(pa[0], pb[0], N)


def wall_count(datum: RootDatum, x, y, alpha) -> int:
    """Walls of the parallel class of alpha strictly separating x and y."""
    alpha = require_positive_root(datum, alpha)
    (px, py), N = _numerators((as_point(datum, x), as_point(datum, y)))
    return _between_scaled(sum(map(mul, alpha, px)), sum(map(mul, alpha, py)), N)


def _wall_distance_scaled(
    datum: RootDatum, ax: tuple[int, ...], ay: tuple[int, ...], x_values: list[int] | None = None
) -> tuple[int, Root | None, int]:
    """Wall distance, witness and wall count of ax and ay; x_values, when
    given, are the tester's root_values(ax), computed once by a caller
    that holds ax fixed.

    Each count is _between_scaled's without its clip at 0: it reads -1
    only where a == b is a multiple of N, both points on one wall of
    that root.  A positive maximum is first attained where the clipped
    counts first attain it; a maximum of 0 or -1 means every clipped
    count is 0, so the witness is the first positive root."""
    if ax == ay:
        return 0, None, 0
    N, values = datum.scale, _tester(datum).root_values
    if x_values is None:
        x_values = values(ax)
    pairs = zip(x_values, values(ay))
    counts = [(b - 1) // N - a // N if a < b else (a - 1) // N - b // N for a, b in pairs]
    best = max(counts)
    if best <= 0:
        return 1, datum.positive_roots[0], 0
    return 1 + best, datum.positive_roots[counts.index(best)], best


def wall_distance(datum: RootDatum, x, y) -> DistanceReport:
    ax = _vertex_scaled(datum, x)
    ay = _vertex_scaled(datum, y)
    d, witness, count = _wall_distance_scaled(datum, ax, ay)
    return DistanceReport(d=d, witness_root=witness, wall_count=count)


def adjacent(datum: RootDatum, x, y) -> bool:
    return wall_distance(datum, x, y).d == 1


def iter_wall_ball_points(
    datum: RootDatum, center, r: int, *, budget: int | None = None
) -> Iterator[Point]:
    """Vertices within wall distance r of center, unordered.

    Candidates come from the coordinate box of half-width r: any root
    value differing by more than r forces more than r-1 separating
    walls.
    """
    require_int(r, "radius must be a nonnegative integer", 0)
    ac = _vertex_scaled(datum, center)
    scale = datum.scale
    lo = tuple(v - r * scale for v in ac)
    hi = tuple(v + r * scale for v in ac)
    walk = _walk(datum, lo, hi, _Budget(budget))
    vc = _tester(datum).root_values(ac)
    yield from _as_points(scale, (a for a in walk if _wall_distance_scaled(datum, ac, a, vc)[0] <= r))


def apartment_ball(
    datum: RootDatum, center, r: int, *, budget: int | None = None
) -> VertexSet:
    """All vertices at wall distance at most r from center."""
    return _make_vertex_set(datum, iter_wall_ball_points(datum, center, r, budget=budget))


def _link(
    datum: RootDatum, corner: tuple[int, ...], state: _Budget
) -> list[tuple[int, ...]]:
    """Sorted offsets from an alcove corner to its neighbours.

    The stabilizer of the corner in the affine Weyl group is generated
    by the reflections in the alcove walls through it, and the
    neighbours are the orbit of the other corners under it.  The walls
    are the tester's: simple wall i is the functional p_i, the affine
    one marks.p - scale, and each reflects p to p - f(p) col, the step
    _fold applies.  Spends one unit of state per reflection image: rank
    times the number of neighbours.
    """
    N, d = datum.scale, datum.rank
    marks = datum.highest_root_coeffs
    tester = _tester(datum)
    values = (*corner, sum(map(mul, marks, corner)) - N)
    through = [(i, col) for i, col in enumerate(tester.reflections) if not values[i]]
    orbit = {c for c in tester.corners if c != corner}
    todo = list(orbit)
    while todo:
        p = todo.pop()
        state.spend(len(through))
        for i, col in through:
            f = p[i] if i < d else sum(map(mul, marks, p)) - N
            if f:
                q = list(p)
                for j, c in col:
                    q[j] -= f * c
                q = tuple(q)
                if q not in orbit:
                    orbit.add(q)
                    todo.append(q)
    return sorted(tuple(map(sub, p, corner)) for p in orbit)


def _neighbor_offsets(
    datum: RootDatum,
    a: tuple[int, ...],
    cache: dict,
    state: _Budget,
) -> list[tuple[int, ...]]:
    """Sorted offsets to all vertices adjacent to a, keyed by a's
    residue class.  The search calls it once per class, with the first
    vertex of the class it expands, decoded from that vertex's key.

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
        _fold(datum, pts, N)
        corner = tuple(pts[0])
        if corner not in _tester(datum).corners:
            raise _not_a_vertex(Fraction(v, N) for v in a)
        corner_key = tuple([v % N for v in corner])
        offsets = cache.get(corner_key)
        if offsets is None:
            offsets = cache[corner_key] = _link(datum, corner, state)
        if corner_key != key:
            # the fold's linear part has determinant +-1, so its inverse is integral
            inverse, _ = _inverse([[p[j] - corner[j] for p in pts[1:]] for j in range(d)])
            state.spend(len(offsets))
            offsets = sorted(
                tuple([sum(map(mul, row, delta)) for row in inverse]) for delta in offsets
            )
        cache[key] = offsets
    return offsets


def _bfs(
    datum: RootDatum,
    start: tuple[int, ...],
    max_depth: int,
    state: _Budget,
    target: tuple[int, ...] | None = None,
) -> _DistanceTable:
    """Graph distance from start to each vertex within max_depth edges,
    as a table keyed by _pack in breadth-first order, start first.
    With a target vertex, the search returns as soon as it discovers
    it, so a point query spends the budget a table search spends up to
    that vertex.

    Each residue class modulo the scale has one record, [residue,
    steps, pruned, known], where steps lists (packed offset, the
    neighbour's record) pairs and is filled on the class's first
    expansion in node order: that vertex is decoded from its key and
    handed to _neighbor_offsets.  The vertex, not the residue tuple, is
    handed over: where P^v/Q^v is not trivial the residue tuple can
    fold onto another corner, whose link spends a different budget.
    The frontier is two flat lists, the packed keys and beside each the
    (incoming step, record) edge that reached it, the very tuple of the
    link or pruned list it was read from: an edge costs one integer add
    and one dict lookup, and a discovered vertex allocates no container,
    so the frontier gives the cyclic garbage collector nothing to track.

    A vertex v at depth d reached from p along step s scans only the
    steps _pruned keeps: each dropped one leads into the closed
    neighbourhood of p, whose vertices all have depth at most d and
    were discovered when p was expanded.  A skipped candidate was never
    new, so the depths, their order, the early return and the budget
    are those of the full scan.  The class of p is v's class minus s,
    so the kept steps depend only on v's class and s: pruned maps s to
    them, built on the second use of that edge class (the first scans
    the whole link and leaves None), and known is the set of the
    class's steps and 0, built for its first pruned child.
    """
    N, d = datum.scale, datum.rank
    reach = max_depth * N
    # a target beyond the reach has no key: the search runs to the radius
    goal = None if target is None else _pack(target, start, reach)
    cols = [range(s - reach, s + reach + 1) for s in start]
    zero_cols = [range(-reach, reach + 1)] * d
    powers = [(2 * reach + 1) ** j for j in reversed(range(d))]
    cache: dict = {}
    residue = tuple([v % N for v in start])
    records = {residue: [residue, None, {}, None]}

    def link(key: int, record: list) -> list:
        steps = record[1] = []
        for delta in _neighbor_offsets(datum, _unpack(key, cols, reach), cache, state):
            r = tuple([(u + v) % N for u, v in zip(record[0], delta)])
            neighbour = records.get(r) or records.setdefault(r, [r, None, {}, None])
            steps.append((sum(map(mul, delta, powers)), neighbour))
        return steps

    def build(key: int, step: int, record: list) -> list:
        pruned = record[2]
        if step not in pruned:
            # an edge class's first use scans the whole link
            pruned[step] = None
            return record[1] or link(key, record)
        kept = pruned[step]
        if kept is None:
            back = _unpack(step, zero_cols, reach)
            parent = records[tuple([(u - v) % N for u, v in zip(record[0], back)])]
            kept = pruned[step] = _pruned(record, step, parent)
        return kept

    depths = {0: 0}
    table = _DistanceTable(datum, start, reach, depths)
    if goal == 0:
        return table
    keys, edges = [0], [(0, records[residue])]
    for depth in range(1, max_depth + 1):
        next_keys, next_edges = [], []
        for key, (came, record) in zip(keys, edges):
            for edge in record[2].get(came) or build(key, came, record):
                k = key + edge[0]
                if k not in depths:
                    depths[k] = depth
                    next_keys.append(k)
                    next_edges.append(edge)
                    if k == goal:
                        return table
        keys, edges = next_keys, next_edges
    return table


def _pruned(record: list, step: int, parent: list) -> list:
    """The (step, record) edges of record's link, the link's own tuples,
    that can lead a vertex v of its class, reached by step from a vertex
    p of parent's class, to a vertex the search has not met: those s'
    with step + s' neither zero nor a step of parent's link, so v + s'
    is outside the closed neighbourhood of p.  known, parent's steps and
    0, is built once.

    The sums are exact on packed keys.  The vertices at depth 1 are
    reached from the start along distinct steps, so an edge class is
    used twice only by vertices at depth 2 or more, which are expanded
    only when max_depth is at least 3; every digit of a sum, at most
    twice the scale, is then within the reach."""
    known = parent[3]
    if known is None:
        known = parent[3] = {0, *[t for t, _ in parent[1]]}
    return [edge for edge in record[1] if step + edge[0] not in known]


def _pack(a: tuple[int, ...], start: tuple[int, ...], reach: int) -> int | None:
    """The search key of a: the offsets a_j - s_j from the start s as
    the digits of one integer in the radix R = 2 reach + 1, the first
    coordinate the most significant, or None when some |a_j - s_j|
    exceeds the reach max_depth * scale.

    An edge crosses no wall, so no simple-root value moves by more
    than the scale along it: within max_depth edges every a_j - s_j is
    a balanced base-R digit, the key is exact, and a neighbour's key is
    the vertex's key plus its packed offset.  Past the reach a digit
    would carry into the next one and could alias a vertex of the
    search, so such a point has no key."""
    radix = 2 * reach + 1
    key = 0
    for v, s in zip(a, start):
        v -= s
        if not -reach <= v <= reach:
            return None
        key = key * radix + v
    return key


def _unpack(key: int, cols: list, reach: int) -> tuple:
    """The point whose _pack key is key, coordinate j read off cols[j],
    which lists s_j - reach .. s_j + reach in ascending order, as ints
    or as the Fractions they stand for.

    Digit j of the key is a_j - s_j in -reach .. reach; adding reach
    before each division by the radix 2 reach + 1 makes the remainder
    that digit plus reach, cols[j]'s index, and leaves the higher
    digits' key as the quotient."""
    radix = 2 * reach + 1
    p = []
    for col in reversed(cols):
        key, i = divmod(key + reach, radix)
        p.append(col[i])
    p.reverse()
    return tuple(p)


def simplicial_distance(
    datum: RootDatum,
    x,
    y,
    budget: int,
    *,
    candidate_budget: int | None = None,
) -> int:
    """Graph distance in the 1-skeleton, searched out to the budget radius.

    Adjacency is wall distance one, so an adjacent pair returns 1
    without a search.  Raises SearchBudgetError when the budget is
    exhausted first; that is distinct from unreachability, which cannot
    happen inside one apartment.  candidate_budget bounds the work as
    in simplicial_distances.
    """
    require_int(budget, "search budget must be a nonnegative integer", 0)
    ax = _vertex_scaled(datum, x)
    ay = _vertex_scaled(datum, y)
    state = _Budget(candidate_budget)
    if budget and _wall_distance_scaled(datum, ax, ay)[0] == 1:
        return 1
    depth = _bfs(datum, ax, budget, state, ay)._depth(ay)
    if depth is None:
        raise SearchBudgetError(f"target not reached within search radius {budget}")
    return depth


class _DistanceTable(Mapping):
    """A search's depths keyed by _pack, read as points in breadth-first
    order.  A lookup packs its point; iteration decodes each key and
    builds the Fraction coordinates.  The values and items views read
    the depths in order instead of looking each key up again."""

    def __init__(
        self, datum: RootDatum, start: tuple[int, ...], reach: int, depths: dict[int, int]
    ):
        self._datum = datum
        self._start = start
        self._reach = reach
        self._depths = depths

    def _depth(self, a: tuple[int, ...] | None) -> int | None:
        """The depth of the vertex a / scale, or None when a is None or
        the search did not reach it."""
        return self._depths.get(None if a is None else _pack(a, self._start, self._reach))

    def __getitem__(self, x) -> int:
        depth = self._depth(scaled_coords(self._datum, x))
        if depth is None:
            raise KeyError(x)
        return depth

    def __iter__(self) -> Iterator[Point]:
        scale, reach = self._datum.scale, self._reach
        cols = [[Fraction(v, scale) for v in range(s - reach, s + reach + 1)] for s in self._start]
        for key in self._depths:
            yield _unpack(key, cols, reach)

    def __len__(self) -> int:
        return len(self._depths)

    def values(self) -> ValuesView[int]:
        return self._depths.values()

    def items(self) -> ItemsView[Point, int]:
        return _TableItems(self)


class _TableItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[Point, int]]:
        return zip(self._mapping, self._mapping.values())


def simplicial_distances(
    datum: RootDatum,
    source,
    max_depth: int,
    *,
    candidate_budget: int | None = None,
) -> Mapping[Point, int]:
    """Graph distances to every vertex within max_depth of source, as a
    read-only mapping in breadth-first order, source first.  The
    mapping holds the search's packed integer keys: a lookup packs its
    point, and iteration decodes each key into a point of Fractions.

    A lookup takes any exact spelling of a point (Fraction, int or
    mixed).  An exact point the search did not reach, off the vertex
    grid or beyond max_depth, is a missing key: [] raises KeyError and
    get gives None.  Float and bool coordinates raise ValidationError,
    and a wrong length DimensionMismatchError.

    candidate_budget bounds the neighbour generation: one unit per
    reflection image in the link of each alcove corner the search meets
    (rank times the corner's degree), and one per offset mapped into
    each other residue class (its degree).  EnumerationLimitError is
    raised when that is exceeded.
    """
    require_int(max_depth, "search depth must be a nonnegative integer", 0)
    return _bfs(datum, _vertex_scaled(datum, source), max_depth, _Budget(candidate_budget))
