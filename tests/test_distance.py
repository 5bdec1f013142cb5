"""Wall-separation and edge-path metrics, balls, and their interplay."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from alcove import (
    EnumerationLimitError,
    NotAVertexError,
    SearchBudgetError,
    ValidationError,
    adjacent,
    alcove_vertex,
    apartment_ball,
    build_root_datum,
    eval_root,
    fold_pair,
    fold_to_alcove,
    integers_strictly_between,
    iter_wall_ball_points,
    origin,
    parse_type,
    scaled_coords,
    simplicial_distance,
    simplicial_distances,
    wall_count,
    wall_distance,
)
from alcove.apartment import _maximal_denominators, _tester
from alcove.distance import _between_scaled


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


def test_wall_distance_requires_vertices(data):
    a2 = data("A2")
    with pytest.raises(NotAVertexError):
        wall_distance(a2, (F(1, 2), F(0)), origin(a2))
    b2 = data("B2")
    # on grid but not a vertex
    with pytest.raises(NotAVertexError):
        wall_distance(b2, (F(1, 2), F(0)), origin(b2))


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


def _oracle_ball(datum, center, r):
    """Scan the full coordinate box and filter by the definition."""
    scale = datum.scale
    d = datum.rank
    base = [int(v * scale) for v in center]
    pts = set()
    for offs in product(range(-r * scale, r * scale + 1), repeat=d):
        a = tuple(b + o for b, o in zip(base, offs))
        x = tuple(Fraction(v, scale) for v in a)
        from test_apartment import _oracle_is_vertex

        if not _oracle_is_vertex(datum, x):
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


def test_ball_equals_oracle(data):
    for name, radii in (("A2", (0, 1, 2)), ("B2", (1, 2)), ("G2", (1, 2))):
        datum = data(name)
        o = origin(datum)
        for r in radii:
            fast = set(iter_wall_ball_points(datum, o, r))
            assert fast == _oracle_ball(datum, o, r)


def test_ball_off_center(data):
    b2 = data("B2")
    center = (F(0), F(1, 2))
    fast = set(iter_wall_ball_points(b2, center, 2))
    assert fast == _oracle_ball(b2, center, 2)
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
            table = simplicial_distances(datum, x, 6, check=False)
            for y in ball:
                assert table[y] == wall_distance(datum, x, y, check=False).d


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


def test_simplicial_never_below_wall(data):
    g2 = data("G2")
    o = origin(g2)
    table = simplicial_distances(g2, o, 6)
    for y, ds in table.items():
        assert ds >= wall_distance(g2, o, y, check=False).d


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


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.data())
def test_wall_metric_axioms(name, draw):
    datum = build_root_datum(parse_type(name))
    ball = sorted(iter_wall_ball_points(datum, origin(datum), 2))
    pick = st.sampled_from(ball)
    x, y, z = draw.draw(pick), draw.draw(pick), draw.draw(pick)
    dxy = wall_distance(datum, x, y, check=False).d
    assert dxy == wall_distance(datum, y, x, check=False).d
    assert (dxy == 0) == (x == y)
    assert wall_distance(datum, x, z, check=False).d <= dxy + wall_distance(
        datum, y, z, check=False
    ).d
    assert adjacent(datum, x, y, check=False) == (dxy == 1)


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
    assert (
        wall_distance(datum, x, y, check=False).d
        == wall_distance(datum, xs, ys, check=False).d
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "C3"]), st.data())
def test_fold_pair_preserves_wall_distance(name, draw):
    datum = build_root_datum(parse_type(name))
    ball = sorted(iter_wall_ball_points(datum, origin(datum), 2))
    pick = st.sampled_from(ball)
    x, y = draw.draw(pick), draw.draw(pick)
    fx, fy = fold_pair(datum, x, y)
    assert (
        wall_distance(datum, x, y, check=False).d
        == wall_distance(datum, fx, fy, check=False).d
    )


def test_fold_pair_preserves_simplicial_distance(data):
    g2 = data("G2")
    rng = random.Random(11)
    ball = sorted(iter_wall_ball_points(g2, origin(g2), 2))
    for _ in range(15):
        x = ball[rng.randrange(len(ball))]
        y = ball[rng.randrange(len(ball))]
        fx, fy = fold_pair(g2, x, y)
        direct = simplicial_distance(g2, x, y, 10, check=False)
        folded = simplicial_distance(g2, fx, fy, 10, check=False)
        assert direct == folded


@pytest.mark.parametrize("name,least", [("A3", 125), ("B3", 729)])
def test_wall_ball_work_count(data, assert_least_budget, name, least):
    datum = data(name)
    o = origin(datum)
    assert_least_budget(lambda b: list(iter_wall_ball_points(datum, o, 2, budget=b)), least)


def test_search_work_count(data, assert_least_budget):
    b3 = data("B3")
    o = origin(b3)
    assert_least_budget(lambda b: simplicial_distances(b3, o, 3, candidate_budget=b), 150)


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


def _reference_neighbors(datum, a):
    """Offsets from a to its neighbours by the old coordinate-box scan:
    every candidate of the box around a on each maximal denominator's
    grid, kept when no wall separates it from a and it is a vertex."""
    scale = datum.scale
    pos = datum.positive_roots
    base_vals = [sum(c * v for c, v in zip(root, a)) for root in pos]
    tester = _tester(datum)
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
                vb = base_vals[i] + sum(c * dv for c, dv in zip(root, delta))
                if _between_scaled(base_vals[i], vb, scale):
                    separated = True
                    break
            if separated:
                continue
            w = tuple(av + dv for av, dv in zip(a, delta))
            if tester.scaled(w, scale):
                offsets.append(delta)
    offsets.sort()
    return offsets


def _sphere(datum, v, **kwargs):
    table = simplicial_distances(datum, v, 1, **kwargs)
    return {y for y, depth in table.items() if depth == 1}


def _residue(datum, v):
    return tuple(t % datum.scale for t in scaled_coords(datum, v))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "C3", "D4", "F4", "E6"])
def test_neighbors_match_box_scan(data, assert_least_budget, name):
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
            for delta in _reference_neighbors(datum, a)
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
def test_origin_degree(data, name, degree):
    datum = data(name)
    o = origin(datum)
    assert len(_sphere(datum, o)) == degree
    if name not in ("E6", "E7"):  # the box scan takes seconds on E6, minutes on E7
        assert len(_reference_neighbors(datum, scaled_coords(datum, o))) == degree


def test_search_refuses_unchecked_non_vertex(data):
    # on the grid but not a vertex, so it folds onto no alcove corner
    b2 = data("B2")
    with pytest.raises(NotAVertexError):
        simplicial_distances(b2, (F(1, 2), F(0)), 1, check=False)


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
