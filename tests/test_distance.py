"""Wall-separation and edge-path metrics, balls, and their interplay."""

import random
import time
from fractions import Fraction
from itertools import product
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from alcove import (
    DimensionMismatchError,
    EnumerationLimitError,
    NotAVertexError,
    SearchBudgetError,
    ValidationError,
    adjacent,
    alcove_vertex,
    apartment_ball,
    build_root_datum,
    enumerate_scaled_alcove_vertices,
    eval_root,
    fold_pair,
    fold_to_alcove,
    integers_strictly_between,
    is_vertex,
    iter_wall_ball_points,
    origin,
    parse_type,
    scaled_coords,
    simplicial_distance,
    simplicial_distances,
    vertex_type,
    wall_count,
    wall_distance,
)
import alcove.distance
from alcove.apartment import _Budget, _maximal_denominators, _VertexTester, _walk
from alcove.distance import _between_scaled, _bfs, _neighbor_offsets, _unpack


def F(a, b=1):
    return Fraction(a, b)


def test_integers_strictly_between():
    assert integers_strictly_between(0, 1) == 0
    assert integers_strictly_between(0, 2) == 1
    assert integers_strictly_between(2, 0) == 1
    assert integers_strictly_between(0, F(5, 2)) == 2
    assert integers_strictly_between(F(1, 2), F(5, 2)) == 2
    assert integers_strictly_between(F(1, 3), F(2, 3)) == 0
    assert integers_strictly_between(-1, 1) == 1
    assert integers_strictly_between(3, 3) == 0
    assert integers_strictly_between(F(-1, 2), F(7, 2)) == 4


def test_wall_count(data):
    a2 = data("A2")
    assert wall_count(a2, (F(0), F(0)), (F(2), F(0)), (1, 0)) == 1
    assert wall_count(a2, (F(0), F(0)), (F(2), F(0)), (1, 1)) == 1
    assert wall_count(a2, (F(0), F(0)), (F(2), F(0)), (0, 1)) == 0


def test_wall_distance_frozen(data):
    a2 = data("A2")
    o = origin(a2)
    assert wall_distance(a2, o, o).d == 0
    assert wall_distance(a2, o, o).witness_root is None
    rep = wall_distance(a2, o, (F(1), F(0)))
    assert rep.d == 1
    rep = wall_distance(a2, o, (F(2), F(0)))
    assert (rep.d, rep.witness_root, rep.wall_count) == (2, (1, 0), 1)
    rep = wall_distance(a2, o, (F(1), F(1)))
    assert (rep.d, rep.witness_root) == (2, (1, 1))

    g2 = data("G2")
    rep = wall_distance(g2, origin(g2), (F(1), F(0)))
    assert (rep.d, rep.witness_root, rep.wall_count) == (3, (3, 1), 2)


def _oracle_wall_report(datum, x, y):
    """(d, witness, count) from the public wall_count alone: 1 plus the
    largest count over the positive roots, the first root attaining it,
    and that count; (0, None, 0) for x == y."""
    if x == y:
        return 0, None, 0
    counts = [wall_count(datum, x, y, root) for root in datum.positive_roots]
    best = max(counts)
    return 1 + best, datum.positive_roots[counts.index(best)], best


def _report(datum, x, y):
    rep = wall_distance(datum, x, y)
    return rep.d, rep.witness_root, rep.wall_count


@pytest.mark.parametrize("name", ["G2", "B3", "E6", "E7", "E8"])
def test_wall_report_matches_wall_counts(data, name):
    datum = data(name)
    rng = random.Random(name)
    corners = [scaled_coords(datum, p) for p in enumerate_scaled_alcove_vertices(datum, 2).points]
    points = [
        tuple(F(v, datum.scale) for v in _coroot_translate(datum, rng.choice(corners), rng))
        for _ in range(24)
    ]
    for _ in range(40):
        x, y = rng.choice(points), rng.choice(points)
        assert _report(datum, x, y) == _oracle_wall_report(datum, x, y)
    for x in points[:3]:
        assert _report(datum, x, x) == (0, None, 0)


def test_wall_report_all_counts_zero(data):
    a2 = data("A2")
    x, y = origin(a2), (F(1), F(0))
    first = a2.positive_roots[0]
    # the first positive root is 0 at both points, a wall through both
    assert eval_root(a2, first, x) == eval_root(a2, first, y) == 0
    assert all(wall_count(a2, x, y, root) == 0 for root in a2.positive_roots)
    assert _report(a2, x, y) == _oracle_wall_report(a2, x, y) == (1, first, 0)


_REFUSALS = {
    "wall_distance x": lambda d, p: wall_distance(d, p, origin(d)),
    "wall_distance y": lambda d, p: wall_distance(d, origin(d), p),
    "adjacent": lambda d, p: adjacent(d, p, origin(d)),
    "iter_wall_ball_points": lambda d, p: list(iter_wall_ball_points(d, p, 1)),
    "apartment_ball": lambda d, p: apartment_ball(d, p, 1),
    "simplicial_distance x": lambda d, p: simplicial_distance(d, p, origin(d), 3),
    "simplicial_distance y": lambda d, p: simplicial_distance(d, origin(d), p, 3),
    "simplicial_distances": lambda d, p: simplicial_distances(d, p, 1),
    "vertex_type": vertex_type,
}


@pytest.mark.parametrize(
    "name, entry",
    # (1/2, 0) is off the A2 grid, and on the B2 grid but not a vertex
    [("A2", "wall_distance x")] + [("B2", entry) for entry in _REFUSALS],
)
def test_every_entry_requires_vertices(data, name, entry):
    with pytest.raises(NotAVertexError, match=r"^\(1/2, 0\) is not a vertex$"):
        _REFUSALS[entry](data(name), (F(1, 2), F(0)))


def test_adjacent(data):
    a2 = data("A2")
    o = origin(a2)
    assert adjacent(a2, o, (F(1), F(0)))
    assert not adjacent(a2, o, o)
    assert not adjacent(a2, o, (F(2), F(0)))
    g2 = data("G2")
    assert adjacent(g2, origin(g2), (F(1, 3), F(0)))
    assert adjacent(g2, origin(g2), (F(0), F(1, 2)))


def test_adjacent_implies_small_root_gap(data):
    for name in ("A2", "B2", "G2"):
        datum = data(name)
        o = origin(datum)
        for y in iter_wall_ball_points(datum, o, 1):
            for root in datum.positive_roots:
                value = eval_root(datum, root, y)
                # no wall strictly between forces |alpha(y)| <= 1
                assert abs(value) <= 1
                assert integers_strictly_between(0, value) == 0


def _oracle_ball(datum, center, r, is_vertex):
    """Scan the full coordinate box and filter by the definition, with
    is_vertex the slow vertex test."""
    scale = datum.scale
    d = datum.rank
    base = [int(v * scale) for v in center]
    pts = set()
    for offs in product(range(-r * scale, r * scale + 1), repeat=d):
        a = tuple(b + o for b, o in zip(base, offs))
        x = tuple(Fraction(v, scale) for v in a)
        if not is_vertex(datum, x):
            continue
        worst = 0
        for root in datum.positive_roots:
            count = integers_strictly_between(
                eval_root(datum, root, center), eval_root(datum, root, x)
            )
            worst = max(worst, count)
        dist = 0 if x == center else 1 + worst
        if dist <= r:
            pts.add(x)
    return pts


def test_ball_equals_oracle(data, oracle_is_vertex):
    for name, radii in (("A2", (0, 1, 2)), ("B2", (1, 2)), ("G2", (1, 2))):
        datum = data(name)
        o = origin(datum)
        for r in radii:
            fast = set(iter_wall_ball_points(datum, o, r))
            assert fast == _oracle_ball(datum, o, r, oracle_is_vertex)


def test_ball_off_center(data, oracle_is_vertex):
    b2 = data("B2")
    center = (F(0), F(1, 2))
    fast = set(iter_wall_ball_points(b2, center, 2))
    assert fast == _oracle_ball(b2, center, 2, oracle_is_vertex)
    assert center in fast


def test_ball_r0(data):
    a2 = data("A2")
    assert set(iter_wall_ball_points(a2, origin(a2), 0)) == {origin(a2)}


def test_apartment_ball_counts(data):
    a2 = data("A2")
    vs = apartment_ball(a2, origin(a2), 1)
    # origin plus the six adjacent integer points around it
    assert len(vs) == 7
    assert sum(vs.per_type_counts) == 7


def test_ball_budget(data):
    g2 = data("G2")
    with pytest.raises(EnumerationLimitError):
        list(iter_wall_ball_points(g2, origin(g2), 2, budget=3))


def test_simplicial_equals_wall_for_a2_b2(data):
    for name in ("A2", "B2"):
        datum = data(name)
        o = origin(datum)
        ball = sorted(iter_wall_ball_points(datum, o, 2))
        for x in ball:
            table = simplicial_distances(datum, x, 6)
            for y in ball:
                assert table[y] == wall_distance(datum, x, y).d


def test_g2_gap_witness(data):
    g2 = data("G2")
    o = origin(g2)
    x = (F(1), F(0))
    assert wall_distance(g2, o, x).d == 3
    assert simplicial_distance(g2, o, x, 10) == 4


def test_b3_gap_pair(data):
    """The metrics also separate in type B3, without any multiple edge
    lengths: the corner x = (0, 0, 1/2) and its translate by -3/2
    along the first coweight axis are two walls apart, yet share no
    neighbor.  A middle vertex z must keep every root value within
    strict-integer-free range of both endpoints; the roots e1-e2, e1,
    and e1-e3 force e-coordinates z = (0, 1, 1) while e1+e3 forces
    z3 = 0, a contradiction already over the reals.
    """
    b3 = data("B3")
    x = (F(0), F(0), F(1, 2))
    y = (F(-3, 2), F(0), F(1, 2))
    rep = wall_distance(b3, x, y)
    assert rep.d == 2
    assert simplicial_distance(b3, x, y, 10) == 3
    assert not any(
        adjacent(b3, x, z) and adjacent(b3, y, z)
        for z in iter_wall_ball_points(b3, x, 1)
    )


@pytest.mark.parametrize("name, r, pairs", [("A2", 3, None), ("G2", 3, None), ("B3", 3, 100), ("D4", 2, 50)])
def test_point_query_matches_table(data, name, r, pairs):
    # a point query, which stops when it discovers its target, answers
    # what the table search from the same source holds for that target,
    # on every pair of the radius-r wall ball for rank 2 and on seeded
    # pairs above it
    datum = data(name)
    ball = apartment_ball(datum, origin(datum), r).points
    if pairs is None:
        chosen = list(product(ball, repeat=2))
    else:
        rng = random.Random(f"point query {name}")
        chosen = [(x, y) for x in rng.sample(ball, 10) for y in rng.sample(ball, pairs // 10)]
    depth = 2 * r + 2
    tables = {}
    for x, y in chosen:
        if x not in tables:
            tables[x] = simplicial_distances(datum, x, depth)
        assert y in tables[x]
        assert simplicial_distance(datum, x, y, depth) == tables[x][y]


def test_simplicial_never_below_wall(data):
    g2 = data("G2")
    o = origin(g2)
    table = simplicial_distances(g2, o, 6)
    for y, ds in table.items():
        assert ds >= wall_distance(g2, o, y).d


def test_simplicial_depth_exhaustion(data):
    a2 = data("A2")
    with pytest.raises(SearchBudgetError):
        simplicial_distance(a2, origin(a2), (F(5), F(0)), 2)


def test_simplicial_candidate_budget(data):
    a2 = data("A2")
    with pytest.raises(EnumerationLimitError):
        simplicial_distance(a2, origin(a2), (F(2), F(0)), 4, candidate_budget=3)


def test_simplicial_identity(data):
    a2 = data("A2")
    assert simplicial_distance(a2, origin(a2), origin(a2), 0) == 0


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_table_lookup(data, name):
    """A distance table finds a vertex from any exact spelling of it,
    has no entry for an off-grid point or a vertex past max_depth, and
    is a read-only mapping with one entry per vertex the search yields."""
    datum = data(name)
    d, depth = datum.rank, 2
    o = origin(datum)
    table = simplicial_distances(datum, o, depth)
    assert table[(0,) * d] == 0
    for p, k in table.items():
        mixed = tuple(int(t) if t.denominator == 1 else t for t in p)
        assert table[p] == table[mixed] == table.get(mixed) == k
        assert p in table and mixed in table
    beyond = next(
        p for p, k in simplicial_distances(datum, o, depth + 1).items() if k == depth + 1
    )
    for missing in ((F(1, 3),) + (0,) * (d - 1), beyond):
        assert table.get(missing) is None
        assert missing not in table
        with pytest.raises(KeyError):
            table[missing]
    for lookup in (table.get, table.__contains__, table.__getitem__):
        with pytest.raises(DimensionMismatchError):
            lookup((0,) * (d + 1))
    with pytest.raises(TypeError):
        table[o] = 0
    assert table == dict(table.items())
    assert list(table.items()) == [(p, table[p]) for p in table]
    assert list(table.values()) == [table[p] for p in table]
    start = scaled_coords(datum, o)
    assert len(table) == len(_bfs(datum, start, depth, _Budget(None)))


@pytest.mark.parametrize("name", ["A2", "B3", "C3"])
def test_table_lookup_beyond_reach(data, name):
    """A vertex whose offset from the source exceeds depth * scale in
    some coordinate is a missing key, even where a naive pack of its
    offsets, sum_j (a_j - s_j) R^(d-1-j) for R = 2 * depth * scale + 1,
    equals the key of a vertex in the table: w - e_1 + R e_2 moves the
    scaled offsets by -N and R N, which cancel in that sum."""
    datum = data(name)
    d, depth, scale = datum.rank, 2, datum.scale
    radix = 2 * depth * scale + 1
    o = origin(datum)
    table = simplicial_distances(datum, o, depth)
    start = scaled_coords(datum, o)

    def naive(p):
        offsets = [v - s for v, s in zip(scaled_coords(datum, p), start)]
        return sum(v * radix ** (d - 1 - j) for j, v in enumerate(offsets))

    kept = list(table)
    for w in (kept[0], kept[1], kept[-1]):
        alias = (w[0] - 1, w[1] + radix) + w[2:]
        assert is_vertex(datum, alias) and naive(alias) == naive(w)
        assert table.get(alias) is None
        assert alias not in table
        with pytest.raises(KeyError):
            table[alias]
    # a coweight translate of the source one step past the search radius
    far = next(
        p
        for p, k in simplicial_distances(datum, o, depth + 1).items()
        if k == depth + 1 and all(t.denominator == 1 for t in p)
    )
    assert table.get(far) is None
    with pytest.raises(KeyError):
        table[far]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.data())
def test_wall_metric_axioms(name, draw):
    datum = build_root_datum(parse_type(name))
    ball = sorted(iter_wall_ball_points(datum, origin(datum), 2))
    pick = st.sampled_from(ball)
    x, y, z = draw.draw(pick), draw.draw(pick), draw.draw(pick)
    dxy = wall_distance(datum, x, y).d
    assert dxy == wall_distance(datum, y, x).d
    assert (dxy == 0) == (x == y)
    assert wall_distance(datum, x, z).d <= dxy + wall_distance(datum, y, z).d
    assert adjacent(datum, x, y) == (dxy == 1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.data())
def test_translation_invariance(name, draw):
    datum = build_root_datum(parse_type(name))
    ball = sorted(iter_wall_ball_points(datum, origin(datum), 2))
    pick = st.sampled_from(ball)
    x, y = draw.draw(pick), draw.draw(pick)
    units = draw.draw(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * datum.rank)
    )
    # translate by a coroot-lattice element: columns of the Cartan matrix
    shift = tuple(
        sum(datum.cartan[j][k] * units[k] for k in range(datum.rank))
        for j in range(datum.rank)
    )
    xs = tuple(a + s for a, s in zip(x, shift))
    ys = tuple(a + s for a, s in zip(y, shift))
    assert wall_distance(datum, x, y).d == wall_distance(datum, xs, ys).d


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "C3"]), st.data())
def test_fold_pair_preserves_wall_distance(name, draw):
    datum = build_root_datum(parse_type(name))
    ball = sorted(iter_wall_ball_points(datum, origin(datum), 2))
    pick = st.sampled_from(ball)
    x, y = draw.draw(pick), draw.draw(pick)
    fx, fy = fold_pair(datum, x, y)
    assert wall_distance(datum, x, y).d == wall_distance(datum, fx, fy).d


def test_fold_pair_preserves_simplicial_distance(data):
    g2 = data("G2")
    rng = random.Random(11)
    ball = sorted(iter_wall_ball_points(g2, origin(g2), 2))
    for _ in range(15):
        x = ball[rng.randrange(len(ball))]
        y = ball[rng.randrange(len(ball))]
        fx, fy = fold_pair(g2, x, y)
        direct = simplicial_distance(g2, x, y, 10)
        folded = simplicial_distance(g2, fx, fy, 10)
        assert direct == folded


@pytest.mark.parametrize(
    "name,center,least",
    [
        pytest.param("A3", None, 125, id="A3-125"),
        pytest.param("B3", None, 729, id="B3-729"),
        pytest.param("B2", (0, F(1, 2)), 81, id="B2-v2-81"),
    ],
)
def test_wall_ball_work_count(data, assert_least_budget, name, center, least):
    datum = data(name)
    c = center or origin(datum)
    assert_least_budget(lambda b: list(iter_wall_ball_points(datum, c, 2, budget=b)), least)


@pytest.mark.parametrize("name, r", [("B3", 2), ("F4", 1), ("E6", 1)])
def test_wall_ball_root_values_once_per_candidate(data, monkeypatch, name, r):
    # the center's root values are computed once per ball, each other
    # vertex of the box walk's once: one call per vertex of the box
    datum = data(name)
    o = origin(datum)
    reach = r * datum.scale
    box = list(_walk(datum, (-reach,) * datum.rank, (reach,) * datum.rank, _Budget(None)))
    values = _VertexTester.root_values
    calls = []
    monkeypatch.setattr(_VertexTester, "root_values", lambda self, a: calls.append(a) or values(self, a))
    ball = list(iter_wall_ball_points(datum, o, r))
    assert len(calls) == len(box) > len(ball)
    assert calls.count(scaled_coords(datum, o)) == 1


def test_search_work_count(data, assert_least_budget):
    b3 = data("B3")
    o = origin(b3)
    assert_least_budget(lambda b: simplicial_distances(b3, o, 3, candidate_budget=b), 150)


# a point search stops when it discovers its target, and spends what the
# links and residue classes met up to then cost
@pytest.mark.parametrize(
    "name,x,y,least",
    [
        ("G2", (0, 0), (1, 0), 58),
        ("B3", (0, 0, F(1, 2)), (F(-3, 2), 0, F(1, 2)), 150),
        ("E6", (0,) * 6, (0, 1, 0, 0, 0, 0), 9674),
    ],
    ids=["G2-gap", "B3-gap", "E6-distance-2"],
)
def test_point_search_work_count(data, assert_least_budget, name, x, y, least):
    datum = data(name)
    assert_least_budget(
        lambda b: simplicial_distance(datum, x, y, 10, candidate_budget=b), least
    )


# every search but F4's at depth 1 spends one budget across several
# residue classes
@pytest.mark.parametrize(
    "name,corner,depth,least",
    [("G2", 0, 2, 58), ("G2", 1, 2, 52), ("F4", 0, 1, 960), ("C3", 1, 3, 148)],
)
def test_shared_budget_work_count(data, assert_least_budget, name, corner, depth, least):
    datum = data(name)
    v = alcove_vertex(datum, corner)
    assert_least_budget(
        lambda b: simplicial_distances(datum, v, depth, candidate_budget=b), least
    )


def _reference_neighbors(datum, a, is_vertex):
    """Offsets from a to its neighbours by the old coordinate-box scan:
    every candidate of the box around a on each maximal denominator's
    grid, kept when no wall separates it from a and is_vertex(datum, w)
    holds."""
    scale = datum.scale
    pos = datum.positive_roots
    base_vals = [sum(map(mul, root, a)) for root in pos]
    offsets = []
    tried: set[tuple[int, ...]] = set()
    for denom in _maximal_denominators(datum):
        step = scale // denom
        # candidates live on the absolute step-grid of this denominator,
        # not on a grid through a: neighbors of a may have a different
        # coordinate denominator than a itself
        axes = []
        for av in a:
            lo = -((scale - av) // step)
            hi = (av + scale) // step
            axes.append([k * step - av for k in range(lo, hi + 1)])
        for delta in product(*axes):
            if delta in tried or not any(delta):
                continue
            tried.add(delta)
            separated = False
            for i, root in enumerate(pos):
                vb = base_vals[i] + sum(map(mul, root, delta))
                if _between_scaled(base_vals[i], vb, scale):
                    separated = True
                    break
            if separated:
                continue
            w = tuple(av + dv for av, dv in zip(a, delta))
            if is_vertex(datum, w):
                offsets.append(delta)
    offsets.sort()
    return offsets


def _sphere(datum, v, **kwargs):
    table = simplicial_distances(datum, v, 1, **kwargs)
    return {y for y, depth in table.items() if depth == 1}


def _residue(datum, v):
    return tuple(t % datum.scale for t in scaled_coords(datum, v))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "C3", "D4", "F4", "E6"])
def test_neighbors_match_box_scan(data, assert_least_budget, rank_is_vertex, name):
    datum = data(name)
    corners = [alcove_vertex(datum, i) for i in range(datum.rank + 1)]
    if name == "E6":
        # the box scan takes about a second a start here: two vertices of
        # the origin's sphere outside the corners' residue classes
        classes = {_residue(datum, c) for c in corners}
        others = [y for y in sorted(_sphere(datum, origin(datum))) if _residue(datum, y) not in classes]
        others = [others[0], others[-1]]
    else:
        others = sorted(set(iter_wall_ball_points(datum, origin(datum), 1)) - set(corners))
        others = [others[0], others[len(others) // 2], others[-1]]
    scale = datum.scale
    for v in corners + others:
        a = scaled_coords(datum, v)
        expected = {
            tuple(Fraction(av + dv, scale) for av, dv in zip(a, delta))
            for delta in _reference_neighbors(datum, a, rank_is_vertex)
        }
        assert _sphere(datum, v) == expected
        # the link spends one unit per reflection image, rank per neighbour;
        # a vertex outside its corner's residue class one more per neighbour
        mapped = _residue(datum, v) != _residue(datum, fold_to_alcove(datum, v))
        least = (datum.rank + mapped) * len(expected)
        assert_least_budget(
            lambda b: simplicial_distances(datum, v, 1, candidate_budget=b), least
        )


@pytest.mark.parametrize(
    "name,degree",
    [("A2", 6), ("B3", 26), ("D4", 48), ("F4", 240), ("E6", 1278), ("E7", 17642)],
)
def test_origin_degree(data, rank_is_vertex, name, degree):
    datum = data(name)
    o = origin(datum)
    assert len(_sphere(datum, o)) == degree
    if name not in ("E6", "E7"):  # the box scan takes seconds on E6, minutes on E7
        assert len(_reference_neighbors(datum, scaled_coords(datum, o), rank_is_vertex)) == degree


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "C3", "D4", "F4", "E6", "E7"])
def test_neighbor_offsets_within_scale(data, name):
    """An edge crosses no wall, so no simple-root value moves by more
    than the scale; the search's packed keys rely on that bound.  The
    residue classes checked are the corners' and those a depth-2
    search from the origin expands: the origin's and its neighbours'."""
    datum = data(name)
    scale = datum.scale
    cache: dict = {}
    state = _Budget(None)
    for i in range(datum.rank + 1):
        _neighbor_offsets(datum, scaled_coords(datum, alcove_vertex(datum, i)), cache, state)
    for delta in _neighbor_offsets(datum, (0,) * datum.rank, cache, state):
        _neighbor_offsets(datum, delta, cache, state)
    bound = max(abs(v) for offsets in cache.values() for delta in offsets for v in delta)
    assert bound <= scale


def test_e8_link_budget_fails_fast(data):
    # the E8 origin has 881,760 neighbours; the budget stops the orbit early
    e8 = data("E8")
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError):
        simplicial_distances(e8, origin(e8), 1, candidate_budget=10_000)
    assert time.perf_counter() - start < 1.0


def test_adjacent_pair_needs_no_search(data):
    e7 = data("E7")
    o, v7 = origin(e7), alcove_vertex(e7, 7)
    assert simplicial_distance(e7, o, v7, 1, candidate_budget=1) == 1
    with pytest.raises(SearchBudgetError):
        simplicial_distance(e7, o, v7, 0)


@pytest.mark.parametrize("target", [0, 7], ids=["x == y", "adjacent"])
def test_zero_candidate_budget_refused(data, target):
    e7 = data("E7")
    with pytest.raises(ValidationError):
        simplicial_distance(e7, origin(e7), alcove_vertex(e7, target), 1, candidate_budget=0)


@pytest.mark.parametrize(
    "name,depth,classes",
    [("A2", 5, 1), ("B3", 4, 5), ("C3", 4, 4), ("D4", 4, 4), ("G2", 5, 6), ("E6", 1, 1)],
)
def test_each_class_linked_once(data, monkeypatch, name, depth, classes):
    """The search asks for a residue class's link once, on its first
    expansion.  A second request would hit the offset cache and spend
    no budget, so the budget pins cannot see it."""
    datum = data(name)
    scale = datum.scale
    calls = []
    neighbor_offsets = alcove.distance._neighbor_offsets

    def counted(datum, a, cache, state):
        calls.append(tuple(v % scale for v in a))
        return neighbor_offsets(datum, a, cache, state)

    monkeypatch.setattr(alcove.distance, "_neighbor_offsets", counted)
    table = simplicial_distances(datum, origin(datum), depth)
    expanded = {_residue(datum, v) for v, k in table.items() if k < depth}
    assert sorted(calls) == sorted(expanded)
    assert len(calls) == classes


def _reference_bfs(datum, start, max_depth, state):
    """Each vertex within max_depth edges of start with its graph
    distance, in breadth-first order, start first: the search on
    coordinate tuples, building and hashing every candidate neighbour."""
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


# type -> (alcove corners the search starts from, depth)
BFS_CASES = {
    "A2": ((0,), 10),
    "G2": ((0,), 8),
    "B3": ((0, 1, 2, 3), 6),
    "C3": ((0, 1, 2, 3), 6),
    "D4": ((0,), 5),
    "F4": ((0,), 1),
    "E6": ((0,), 1),
}


@pytest.mark.parametrize("name", list(BFS_CASES))
def test_bfs_matches_reference(data, name):
    """The search yields the reference's (vertex, depth) sequence in
    order and spends the same budget, from each corner and from a
    coroot translate of it, whose coordinates reach below zero; the
    public table keeps that order."""
    datum = data(name)
    corners, depth = BFS_CASES[name]
    d, scale = datum.rank, datum.scale
    rng = random.Random(f"bfs {name}")
    for i in corners:
        corner = scaled_coords(datum, alcove_vertex(datum, i))
        units = [rng.randint(-3, 3) for _ in range(d)]
        moved = tuple(
            v + scale * sum(datum.cartan[j][k] * units[k] for k in range(d))
            for j, v in enumerate(corner)
        )
        for a in (corner, moved):
            ref_state, state = _Budget(None), _Budget(None)
            expected = list(_reference_bfs(datum, a, depth, ref_state))
            reach = depth * scale
            depths = _bfs(datum, a, depth, state)._depths
            coords = [range(v - reach, v + reach + 1) for v in a]
            assert [(_unpack(key, coords, reach), k) for key, k in depths.items()] == expected
            assert state.used == ref_state.used
            x = tuple(Fraction(v, scale) for v in a)
            table = simplicial_distances(datum, x, depth)
            assert list(table.items()) == [
                (tuple(Fraction(v, scale) for v in w), k) for w, k in expected
            ]


def _coroot_translate(datum, a, rng):
    """a moved by a random coroot-lattice vector, as scaled coordinates."""
    units = [rng.randint(-3, 3) for _ in range(datum.rank)]
    return tuple(
        v + datum.scale * sum(datum.cartan[j][k] * units[k] for k in range(datum.rank))
        for j, v in enumerate(a)
    )


def _assert_search_matches_reference(datum, a, depth, target=None):
    """_bfs from a yields the reference's (vertex, depth) sequence and
    spends its budget; with a target, the reference's prefix up to the
    target and the budget spent by then."""
    ref_state, state = _Budget(None), _Budget(None)
    expected = []
    for w, k in _reference_bfs(datum, a, depth, ref_state):
        expected.append((w, k))
        if w == target:
            break
    reach = depth * datum.scale
    depths = _bfs(datum, a, depth, state, target)._depths
    coords = [range(v - reach, v + reach + 1) for v in a]
    assert [(_unpack(key, coords, reach), k) for key, k in depths.items()] == expected
    assert state.used == ref_state.used
    return expected


# (type, alcove corners, depth, also from a coroot translate): searches
# deep enough that vertices of one residue class are reached along one
# step many times, so they scan the pruned steps
REPEATED_EDGE_CASES = [
    ("D4", (0,), 8, True),
    ("B3", (0, 1, 2, 3), 9, False),
    ("C3", (0, 1, 2, 3), 9, False),
    ("A3", (0,), 8, False),
    ("G2", (0,), 12, False),
]


@pytest.mark.parametrize(
    "name,corners,depth,moved", REPEATED_EDGE_CASES, ids=[c[0] for c in REPEATED_EDGE_CASES]
)
def test_pruned_search_matches_reference(data, name, corners, depth, moved):
    datum = data(name)
    rng = random.Random(f"pruned bfs {name}")
    for i in corners:
        corner = scaled_coords(datum, alcove_vertex(datum, i))
        for a in (corner, _coroot_translate(datum, corner, rng)) if moved else (corner,):
            _assert_search_matches_reference(datum, a, depth)


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4"])
def test_tightest_reach_matches_reference(data, monkeypatch, name, depth):
    """The depth-1 vertices are reached from the start along distinct
    steps, so no edge class is used twice and no pruned list is built
    below depth 3.  At depth 3 the reach is three times the scale and a
    packed step plus a packed link offset moves a digit by up to twice
    it.  From every corner, the table and point queries for the first,
    middle and last vertex of each sphere match the reference."""
    datum = data(name)
    built = []
    pruned = alcove.distance._pruned
    monkeypatch.setattr(alcove.distance, "_pruned", lambda *args: built.append(args) or pruned(*args))
    for i in range(datum.rank + 1):
        a = scaled_coords(datum, alcove_vertex(datum, i))
        expected = _assert_search_matches_reference(datum, a, depth)
        for k in range(1, depth + 1):
            sphere = [w for w, j in expected if j == k]
            for target in (sphere[0], sphere[len(sphere) // 2], sphere[-1]):
                assert _assert_search_matches_reference(datum, a, depth, target)[-1][0] == target
    assert bool(built) == (depth == 3)


# (type, alcove corners, depth): the two deepest spheres are discovered
# by vertices that scan pruned steps
PRUNED_POINT_CASES = [("D4", (0,), 6), ("B3", (0, 1, 2, 3), 7), ("C3", (0, 1, 2, 3), 7)]


@pytest.mark.parametrize(
    "name,corners,depth", PRUNED_POINT_CASES, ids=[c[0] for c in PRUNED_POINT_CASES]
)
def test_pruned_point_query_matches_reference(data, name, corners, depth):
    """A point query for the first, middle and last vertex of each of
    the two deepest spheres returns the reference's prefix up to that
    vertex and spends its budget, so the early return inside the pruned
    region stops where the full scan would."""
    datum = data(name)
    for i in corners:
        a = scaled_coords(datum, alcove_vertex(datum, i))
        expected = _assert_search_matches_reference(datum, a, depth)
        for k in (depth - 1, depth):
            sphere = [w for w, j in expected if j == k]
            for target in (sphere[0], sphere[len(sphere) // 2], sphere[-1]):
                assert _assert_search_matches_reference(datum, a, depth, target)[-1][0] == target


@pytest.mark.parametrize("name", ["C3", "D4"])
def test_deep_point_query_matches_table(data, name):
    # targets at distance 3 to 5 are discovered by vertices that scan
    # pruned steps
    datum = data(name)
    o = origin(datum)
    table = simplicial_distances(datum, o, 5)
    rng = random.Random(f"deep point query {name}")
    for k in (3, 4, 5):
        for y in rng.sample([y for y, j in table.items() if j == k], 4):
            assert simplicial_distance(datum, o, y, 5) == k


@pytest.mark.parametrize("name,corners", [("B3", (0, 1, 2, 3)), ("C3", (0, 1, 2, 3)), ("D4", (0,))])
def test_pruned_steps_leave_parent_neighbourhood(data, monkeypatch, name, corners):
    """Every pruned list a depth-6 search builds, read on coordinate
    tuples: a step of v's link is kept iff it leads out of the closed
    neighbourhood of v's parent p, v = p + s."""
    datum = data(name)
    scale, depth = datum.scale, 6
    reach, zero = depth * scale, (0,) * datum.rank
    digits = [range(-reach, reach + 1)] * datum.rank
    built = []
    pruned = alcove.distance._pruned

    def recorded(record, step, parent):
        kept = pruned(record, step, parent)
        built.append((record, step, parent, kept))
        return kept

    monkeypatch.setattr(alcove.distance, "_pruned", recorded)
    for i in corners:
        simplicial_distances(datum, alcove_vertex(datum, i), depth)
    assert built
    cache: dict = {}
    for record, step, parent, kept in built:
        v_link = _neighbor_offsets(datum, record[0], cache, _Budget(None))
        p_link = _neighbor_offsets(datum, parent[0], cache, _Budget(None))
        s = _unpack(step, digits, reach)
        assert s in p_link
        assert tuple((r - t) % scale for r, t in zip(record[0], s)) == parent[0]
        closed = set(p_link) | {zero}
        leaving = [delta for delta in v_link if tuple(map(add, s, delta)) not in closed]
        assert [_unpack(t, digits, reach) for t, _ in kept] == leaving
        for t, u in kept:
            delta = _unpack(t, digits, reach)
            assert u[0] == tuple((r + x) % scale for r, x in zip(record[0], delta))
