"""Alcove geometry: membership, vertex tests, folding, enumeration."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from alcove import (
    DimensionMismatchError,
    EnumerationLimitError,
    FoldLimitError,
    NotAVertexError,
    ValidationError,
    alcove_vertex,
    apartment_ball,
    as_point,
    build_root_datum,
    enumerate_scaled_alcove_vertices,
    eval_root,
    fold_pair,
    fold_to_alcove,
    in_scaled_alcove,
    is_special,
    is_vertex,
    iter_scaled_alcove_vertices,
    iter_wall_ball_points,
    origin,
    parse_type,
    scaled_coords,
    vertex_type,
)
from alcove import apartment, ball_sum, theorem_table
from alcove.apartment import (
    _Budget,
    _fold,
    _lane_counter,
    _maximal_denominators,
    _numerators,
    _residues,
    _tester,
)
from alcove.cartan import _integer_inverse
from alcove.distance import _neighbor_offsets


FAMILY_TYPES = ("A2", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2")


def test_as_point_validation(data):
    a2 = data("A2")
    assert as_point(a2, [1, Fraction(1, 2)]) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(DimensionMismatchError):
        as_point(a2, [1])
    with pytest.raises(ValidationError):
        as_point(a2, [1, "x"])
    with pytest.raises(ValidationError):
        as_point(a2, [Decimal("Infinity"), 0])
    # a string is not read character by character; coordinate strings are exact
    for text in ("10", b"10", bytearray(b"10")):
        with pytest.raises(ValidationError):
            as_point(a2, text)
    assert as_point(a2, ["1/2", "0"]) == (Fraction(1, 2), Fraction(0))
    # sets and mappings have no coordinate order; a mapping would be read by its keys
    for unordered in ({2, 1}, frozenset({1, 2}), {"1": 0, "0": 0}, {0: 1, 1: 2}.keys()):
        with pytest.raises(ValidationError, match="is not a point"):
            as_point(a2, unordered)


def test_non_vertex_message(data):
    # B2 has scale 2: (1, 0) is (1/2, 0)
    b2 = data("B2")
    with pytest.raises(NotAVertexError, match=r"^\(1/2, 0\) is not a vertex$"):
        _neighbor_offsets(b2, (1, 0), {}, _Budget(None))


def test_as_point_keeps_fractions(data):
    a2 = data("A2")
    coords = [Fraction(1, 2), Fraction(-3, 4)]
    assert all(p is c for p, c in zip(as_point(a2, coords), coords))


def test_origin_and_corners(data):
    b2 = data("B2")
    assert origin(b2) == (Fraction(0), Fraction(0))
    assert alcove_vertex(b2, 0) == origin(b2)
    assert alcove_vertex(b2, 1) == (Fraction(1), Fraction(0))
    assert alcove_vertex(b2, 2) == (Fraction(0), Fraction(1, 2))
    with pytest.raises(ValidationError):
        alcove_vertex(b2, 3)


def test_in_scaled_alcove(data):
    a2 = data("A2")
    assert in_scaled_alcove(a2, 1, (Fraction(1), Fraction(0)))
    assert in_scaled_alcove(a2, 1, (Fraction(1, 3), Fraction(1, 3)))
    assert not in_scaled_alcove(a2, 1, (Fraction(1), Fraction(1)))
    assert not in_scaled_alcove(a2, 1, (Fraction(-1, 7), Fraction(0)))
    assert in_scaled_alcove(a2, Fraction(1, 2), (Fraction(1, 4), Fraction(1, 4)))
    assert in_scaled_alcove(a2, 0, origin(a2))
    with pytest.raises(ValidationError):
        in_scaled_alcove(a2, -1, origin(a2))


def test_scaled_coords(data):
    g2 = data("G2")
    assert scaled_coords(g2, (Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert scaled_coords(g2, (Fraction(1, 7), Fraction(0))) is None
    a2 = data("A2")
    assert scaled_coords(a2, (Fraction(2), Fraction(-1))) == (2, -1)
    assert scaled_coords(a2, (Fraction(1, 2), Fraction(0))) is None


def test_corners_are_vertices(data):
    for name in ("A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"):
        datum = data(name)
        for i in range(datum.rank + 1):
            corner = alcove_vertex(datum, i)
            assert is_vertex(datum, corner)
            assert vertex_type(datum, corner) == i


def test_special_iff_mark_one(data):
    for name in ("A2", "B2", "B3", "C3", "G2", "F4", "D4"):
        datum = data(name)
        assert is_special(datum, origin(datum))
        for i in range(1, datum.rank + 1):
            corner = alcove_vertex(datum, i)
            assert is_special(datum, corner) == (datum.highest_root_coeffs[i - 1] == 1)


@pytest.mark.parametrize("name", FAMILY_TYPES)
def test_is_special_matches_all_roots_integral(data, name):
    # special means every root, not just every simple root, is integral;
    # points on the vertex grid (mostly non-integral), integer points and
    # off-grid points, of both signs
    datum = data(name)
    rng = random.Random(f"special {name}")
    seen = set()
    for k in range(60):
        grid = [(datum.scale,), (1,), (2, 3, 5, 7, 11)][k % 3]
        x = _random_rational_point(rng, datum.rank, grid)
        expected = _integral_roots(datum, x) == len(datum.positive_roots)
        assert is_special(datum, x) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_is_vertex_against_elimination_oracle(data, oracle_is_vertex):
    for name in ("A2", "B2", "G2"):
        datum = data(name)
        scale = datum.scale
        for a in product(range(-scale, 2 * scale + 1), repeat=datum.rank):
            x = tuple(Fraction(v, scale) for v in a)
            assert is_vertex(datum, x) == oracle_is_vertex(datum, x)


@pytest.mark.parametrize("name", ["F4", "E6", "E7", "E8", "G2", "B4", "C4", "D5", "A5"])
def test_is_vertex_matches_rank_reference(data, rank_is_vertex, name):
    # the alcove corners and random points of each maximal denominator's
    # grid, then integer translates of them, which is_vertex answers from
    # its residue memo
    datum = data(name)
    scale, d = datum.scale, datum.rank
    rng = random.Random(f"rank {name}")
    points = [scaled_coords(datum, alcove_vertex(datum, i)) for i in range(d + 1)]
    for denom in _maximal_denominators(datum):
        step = scale // denom
        points += [[step * rng.randrange(denom) for _ in range(d)] for _ in range(1000)]
    outcomes = set()
    for a in points:
        translate = [v + scale * rng.randint(-3, 3) for v in a]
        for b in (a, translate):
            expected = rank_is_vertex(datum, b)
            assert is_vertex(datum, [Fraction(v, scale) for v in b]) == expected, b
            outcomes.add(expected)
    # on scale 1 (type A) every integer point is a vertex
    assert outcomes == ({True} if scale == 1 else {True, False})


CHAIN_TYPES = (
    *(f"A{n}" for n in range(1, 9)),
    *(f"B{n}" for n in range(2, 9)),
    *(f"C{n}" for n in range(2, 9)),
    *(f"D{n}" for n in range(4, 9)),
    "E6", "E7", "E8", "F4", "G2",
)


@pytest.mark.parametrize("name", CHAIN_TYPES)
def test_root_values_match_dot_products(data, name):
    # the height chain against one dot product per positive root, at
    # integer points of both signs, most of them off the scale's multiples
    datum = data(name)
    d, scale = datum.rank, datum.scale
    rng = random.Random(f"chain {name}")
    values = _tester(datum).root_values
    points = [[rng.randint(-5 * scale - 3, 5 * scale + 3) for _ in range(d)] for _ in range(40)]
    for a in [[0] * d, [-1] * d, *points]:
        assert values(a) == [sum(map(mul, root, a)) for root in datum.positive_roots]


def _integral_roots(datum, x):
    """Positive roots taking integer values at the point x, by eval_root."""
    return sum(eval_root(datum, root, x).denominator == 1 for root in datum.positive_roots)


@pytest.mark.parametrize("name", FAMILY_TYPES)
def test_integral_count_prefilter_is_sound(data, rank_is_vertex, name):
    # the integral-root count the vertex tester screens residues by is the
    # same at a point, its fold and its integer translates; every corner's
    # count, and so every vertex's, is one the tester lets through; and the
    # screen reads it right on each maximal denominator's grid.  Random
    # points rarely share a factor with the scale, so each such grid and
    # its integer translates join them.
    datum = data(name)
    d, scale = datum.rank, datum.scale
    tester = _tester(datum)

    def count(a):
        return _integral_roots(datum, [Fraction(v, scale) for v in a])

    corners = [alcove_vertex(datum, i) for i in range(d + 1)]
    assert {_integral_roots(datum, c) for c in corners} == tester.corner_counts
    rng = random.Random(f"count {name}")
    points = [[rng.randint(-3 * scale, 3 * scale) for _ in range(d)] for _ in range(60)]
    for denom in _maximal_denominators(datum):
        step = scale // denom
        grid = [[step * rng.randrange(denom) for _ in range(d)] for _ in range(20)]
        for a in grid + [[v + scale * rng.randint(-3, 3) for v in a] for a in grid]:
            assert tester.grid_count([v % scale for v in a]) == count(a)
            points.append(a)
    rejected = False
    for a in points:
        n = count(a)
        folded = list(a)
        _fold(datum, [folded], scale)
        assert count(folded) == n
        assert count([v + scale * rng.randint(-3, 3) for v in a]) == n
        if rank_is_vertex(datum, a):
            assert n in tester.corner_counts
        rejected |= n not in tester.corner_counts
    assert rejected or scale == 1


def test_lane_counter_reads_low_bytes():
    # hand-built 2-byte lanes, low lane first, with zero lanes above them:
    # when c divides 256 a lane's low byte is the lane modulo c
    values = [0, 2, 3, 4, 255, 256, 257, 258, 510, 512, 768, 1020, 65535]
    packed = sum(v << 16 * k for k, v in enumerate(values))
    for c in (1, 2, 4, 8):
        expected = sum(v % c == 0 for v in values)
        assert _lane_counter(c, 2, len(values))(packed) == expected
        assert _lane_counter(c, 2, len(values) + 3)(packed) == expected + 3
    # one-byte lanes are read whole, whatever c is
    assert _lane_counter(3, 1, 5)(int.from_bytes(bytes([0, 3, 4, 255, 7]), "little")) == 3
    # 256 = 1 mod 3: the low byte of a wider lane is not that lane modulo 3
    with pytest.raises(AssertionError):
        _lane_counter(3, 2, 1)


def test_lane_width_rule(data):
    # a lane holds alpha(z) for z in [0, c)^d, at most height(theta) (c - 1),
    # in the fewest bytes that hold it for the largest c; its low byte
    # decides only if that is one byte or c divides 256 (B/C/D past rank
    # 128 need two bytes, with c = 2)
    for row in theorem_table(8).rows:
        datum = data(str(row.rstype))
        denoms = _maximal_denominators(datum)
        top = sum(datum.highest_root_coeffs) * (max(datum.highest_root_coeffs) - 1)
        width = max(1, -(-top.bit_length() // 8))
        assert all(width == 1 or 256 % c == 0 for c in denoms), row.rstype
        assert [g[0] for g in _tester(datum).grids] == denoms


@pytest.mark.parametrize("name", FAMILY_TYPES)
def test_off_grid_residue_not_counted(data, rank_is_vertex, monkeypatch, name):
    # a residue on no maximal denominator's grid is no vertex, and a fresh
    # tester says so without counting its integral roots or folding it
    datum = data(name)
    d, scale = datum.rank, datum.scale
    steps = [scale // c for c in _maximal_denominators(datum)]
    rng = random.Random(f"off grid {name}")
    keys = [tuple(rng.randrange(scale) for _ in range(d)) for _ in range(300)]
    keys = [key for key in keys if all(any(v % step for v in key) for step in steps)]
    # only the types whose scale is itself a maximal denominator have none
    assert bool(keys) == (1 not in steps)
    tester = apartment._VertexTester(datum)
    calls = []
    monkeypatch.setattr(apartment, "_fold", lambda *args: calls.append(args))
    counted = [(c, step, contrib, calls.append) for c, step, contrib, _ in tester.grids]
    monkeypatch.setattr(tester, "grids", counted)
    monkeypatch.setattr(tester, "root_values", calls.append)
    for key in keys:
        assert tester.residue_type(key) is None
        assert not rank_is_vertex(datum, key)
    assert calls == []
    assert tester.memo == dict.fromkeys(keys)


def test_off_grid_is_not_vertex(data):
    a2 = data("A2")
    assert not is_vertex(a2, (Fraction(1, 2), Fraction(0)))
    g2 = data("G2")
    assert not is_vertex(g2, (Fraction(1, 7), Fraction(0)))


def test_fold_frozen_example(data):
    a2 = data("A2")
    folded = fold_to_alcove(a2, (Fraction(2), Fraction(0)))
    assert folded == (Fraction(0), Fraction(1))
    assert vertex_type(a2, (Fraction(2), Fraction(0))) == 2


def test_fold_fixes_alcove_points(data):
    for name in ("A2", "B2", "G2", "C3"):
        datum = data(name)
        for i in range(datum.rank + 1):
            corner = alcove_vertex(datum, i)
            assert fold_to_alcove(datum, corner) == corner
        interior = tuple(
            Fraction(1, 2 * sum(datum.highest_root_coeffs)) for _ in range(datum.rank)
        )
        assert fold_to_alcove(datum, interior) == interior


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["A2", "B2", "G2", "C3"]),
    st.data(),
)
def test_fold_lands_in_alcove(name, draw):
    datum = build_root_datum(parse_type(name))
    scale = datum.scale
    coords = draw.draw(
        st.tuples(
            *[st.integers(min_value=-6 * scale, max_value=6 * scale)] * datum.rank
        )
    )
    x = tuple(Fraction(v, scale) for v in coords)
    folded = fold_to_alcove(datum, x)
    assert in_scaled_alcove(datum, 1, folded)
    assert fold_to_alcove(datum, folded) == folded
    # folding is by root-hyperplane reflections and coroot translations,
    # so vertexhood must be preserved
    assert is_vertex(datum, x) == is_vertex(datum, folded)


def test_vertex_type_counts_r1(data):
    for name in ("A2", "B3", "C3", "D4", "G2", "F4"):
        datum = data(name)
        vs = enumerate_scaled_alcove_vertices(datum, 1)
        assert vs.per_type_counts == (1,) * (datum.rank + 1)
        assert len(vs) == datum.rank + 1


def test_vertex_type_rejects_non_vertex(data):
    b2 = data("B2")
    with pytest.raises(NotAVertexError):
        vertex_type(b2, (Fraction(1, 2), Fraction(0)))


def test_enumeration_counts_a2(data):
    a2 = data("A2")
    # every integer point of A2 is a vertex, so r C holds a triangle of them
    for r in range(4):
        vs = enumerate_scaled_alcove_vertices(a2, r)
        assert len(vs) == (r + 1) * (r + 2) // 2


def test_enumeration_equals_grid_scan(data, oracle_is_vertex):
    # F4 brings the grids of c = 3 and 4, E6 36 roots on those of c = 2
    # and 3; on both the walk's integral-root screen drops most leaves
    for name, radii in (
        ("A2", (0, 1, 2, 3)),
        ("B2", (1, 2, 3)),
        ("G2", (1, 2, 3)),
        ("C3", (1, 2)),
        ("F4", (1, 2)),
        ("E6", (1,)),
    ):
        datum = data(name)
        scale = datum.scale
        marks = datum.highest_root_coeffs
        for r in radii:
            axes = [range(0, r * scale // c + 1) for c in marks]
            slow = set()
            for a in product(*axes):
                if sum(c * v for c, v in zip(marks, a)) > r * scale:
                    continue
                x = tuple(Fraction(v, scale) for v in a)
                if oracle_is_vertex(datum, x):
                    slow.add(x)
            fast = set(iter_scaled_alcove_vertices(datum, r))
            assert fast == slow


def test_enumerated_vertices_lie_on_type_grid(data):
    # a vertex folding to corner i has coordinates in (1/c_i) Z
    for name in ("B2", "G2", "F4"):
        datum = data(name)
        for x in iter_scaled_alcove_vertices(datum, 2):
            t = vertex_type(datum, x)
            denom = 1 if t == 0 else datum.highest_root_coeffs[t - 1]
            assert all((denom * v).denominator == 1 for v in x)


def _box_walk(datum, lo, hi, budget=None):
    """The grid walk over the coordinate box [lo, hi]: its vertices as
    integer tuples over the scale."""
    N = datum.scale
    low, high = [ceil(t * N) for t in lo], [floor(t * N) for t in hi]
    return apartment._walk(datum, low, high, _Budget(budget))


def test_box_vertices(data):
    assert set(_box_walk(data("A2"), (0, 0), (1, 1))) == {(0, 0), (0, 1), (1, 0), (1, 1)}


# (lo, hi, least budget) of G2 boxes: the second has fractional, negative bounds
G2_BOXES = [
    ((-1, -1), (1, 1), 74),
    ((Fraction(-5, 6), Fraction(-1, 2)), (Fraction(2, 3), Fraction(7, 6)), 37),
]


def test_box_vertices_grid_scan(data, oracle_is_vertex):
    g2 = data("G2")
    scale = g2.scale
    for lo, hi, _ in G2_BOXES:
        slow = set()
        axes = [range(floor(a * scale), floor(b * scale) + 1) for a, b in zip(lo, hi)]
        for a in product(*axes):
            x = tuple(Fraction(v, scale) for v in a)
            if all(l <= t <= h for l, t, h in zip(lo, x, hi)) and oracle_is_vertex(g2, x):
                slow.add(x)
        fast = {tuple(Fraction(v, scale) for v in a) for a in _box_walk(g2, lo, hi)}
        assert fast == slow


def test_walkers_yield_reduced_fractions(data):
    # every coordinate a walker yields is a Fraction in lowest terms
    # equal to v / scale, of either sign, including the negative ones of
    # an E8 ball and of the E8 box that a wider ball walks, whose points
    # have several denominators; each walk reads them from a memo of its
    # own
    e8, b3, g2 = data("E8"), data("B3"), data("G2")
    half, third = Fraction(1, 2), Fraction(1, 3)
    e8_box = _box_walk(e8, (-1, -half, 0, 0, 0, 0, 0, -third), (1, half, 0, 0, 0, 0, 0, third))
    walks = [
        (e8, iter_scaled_alcove_vertices(e8, 2)),
        (g2, iter_scaled_alcove_vertices(g2, 3)),
        (e8, iter_wall_ball_points(e8, (-1, 0, 0, 0, 0, 0, -third, 0), 0)),
        (e8, apartment._as_points(e8.scale, e8_box)),
        (b3, iter_wall_ball_points(b3, (-3 * half, 0, half), 1)),
        (g2, iter_wall_ball_points(g2, (-1, 0), 2)),
    ]
    signs = set()
    for datum, walk in walks:
        points = list(walk)
        assert points
        for t in (t for x in points for t in x):
            v = t * datum.scale
            assert type(t) is Fraction and type(t.numerator) is int and v.denominator == 1
            expected = Fraction(v.numerator, datum.scale)
            assert (t.numerator, t.denominator) == (expected.numerator, expected.denominator)
            assert t.denominator > 0 and gcd(t.numerator, t.denominator) == 1
            signs.add((t > 0) - (t < 0))
    assert signs == {-1, 0, 1}


def test_vertex_sets_sorted_and_counted(data):
    # each VertexSet builder lists its points once each, in the order of
    # their Fraction tuples, and counts them by vertex_type; the balls
    # reach negative coordinates
    a2, g2, f4, e6, b3 = (data(name) for name in ("A2", "G2", "F4", "E6", "B3"))
    half = Fraction(1, 2)
    sets = [
        (a2, enumerate_scaled_alcove_vertices(a2, 3)),
        (g2, enumerate_scaled_alcove_vertices(g2, 3)),
        (f4, enumerate_scaled_alcove_vertices(f4, 2)),
        (e6, enumerate_scaled_alcove_vertices(e6, 2)),
        (g2, apartment_ball(g2, (-1, 0), 2)),
        (f4, apartment_ball(f4, origin(f4), 1)),
        (b3, apartment_ball(b3, (-3 * half, 0, half), 2)),
    ]
    for datum, vs in sets:
        points = vs.points
        assert len(points) > datum.rank + 1
        assert all(type(t) is Fraction for x in points for t in x)
        assert points == tuple(sorted(points))
        assert len(set(points)) == len(points)
        types = Counter(vertex_type(datum, x) for x in points)
        assert vs.per_type_counts == tuple(types[i] for i in range(datum.rank + 1))
    assert any(t < 0 for _, vs in sets[4:] for x in vs.points for t in x)


def test_budget_exhaustion(data):
    b2 = data("B2")
    with pytest.raises(EnumerationLimitError):
        list(iter_scaled_alcove_vertices(b2, 3, budget=2))
    with pytest.raises(ValidationError):
        list(iter_scaled_alcove_vertices(b2, 3, budget=0))


def test_radius_validation(data):
    a2 = data("A2")
    with pytest.raises(ValidationError):
        list(iter_scaled_alcove_vertices(a2, -1))
    with pytest.raises(ValidationError):
        list(iter_scaled_alcove_vertices(a2, Fraction(1, 2)))


@pytest.mark.parametrize(
    "name,r,least",
    [("A2", 2, 6), ("G2", 6, 56), ("F4", 3, 128), ("B4", 4, 105), ("E6", 2, 181), ("E8", 3, 2485)],
)
def test_walk_work_counts(data, assert_least_budget, name, r, least):
    datum = data(name)
    assert_least_budget(lambda b: list(iter_scaled_alcove_vertices(datum, r, budget=b)), least)


def test_box_work_count(data, assert_least_budget):
    g2 = data("G2")
    for lo, hi, least in G2_BOXES:
        assert_least_budget(lambda b: list(_box_walk(g2, lo, hi, b)), least)


def _reference_fold(datum, main, companions):
    """The Fraction fold the integer one replaced, kept verbatim as an oracle.

    Same coroot pre-translation, same lowest-index-wall-first order;
    returns the folded points and the number of reflections applied.
    """
    d = datum.rank
    cartan = datum.cartan
    marks = datum.highest_root_coeffs
    u = datum.alpha0_coroot_row
    pts = [list(main)] + [list(c) for c in companions]
    t = pts[0]

    rows, D = _integer_inverse(datum)
    ainv = [[Fraction(v, D) for v in row] for row in rows]
    lattice_coords = [
        sum(ainv[i][j] * t[j] for j in range(d)) for i in range(d)
    ]
    units = [floor(v) for v in lattice_coords]
    if any(units):
        shift = [
            sum(cartan[j][i] * units[i] for i in range(d)) for j in range(d)
        ]
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
            height = sum(m * v for m, v in zip(marks, t))
            if height <= 1:
                break
            for p in pts:
                g = sum(m * v for m, v in zip(marks, p)) - 1
                for j in range(d):
                    p[j] -= g * u[j]
        steps += 1
    return tuple(tuple(p) for p in pts), steps


def _random_rational_point(rng, d, denominators=(1, 2, 3, 5, 7, 11)):
    # denominators 5, 7 and 11 divide no scale, so most points are off-grid
    return tuple(Fraction(rng.randint(-40, 40), rng.choice(denominators)) for _ in range(d))


@pytest.mark.parametrize("name", FAMILY_TYPES)
def test_fold_matches_reference(data, name, monkeypatch):
    datum = data(name)
    rng = random.Random(f"fold {name}")
    for k in range(40):
        # every other x is on the vertex grid, so it lies on walls as the
        # vertices the census folds do
        grid = (datum.scale,) if k % 2 else (1, 2, 3, 5, 7, 11)
        x = _random_rational_point(rng, datum.rank, grid)
        y = _random_rational_point(rng, datum.rank)
        (fx, fy), steps = _reference_fold(datum, x, (y,))
        assert fold_pair(datum, x, y) == (fx, fy)
        pts, N = _numerators((x,))
        assert _fold(datum, pts, N) == steps
        if steps:
            with monkeypatch.context() as m:
                m.setattr(apartment, "DEFAULT_FOLD_LIMIT", steps)
                assert fold_to_alcove(datum, x) == fx
                m.setattr(apartment, "DEFAULT_FOLD_LIMIT", steps - 1)
                with pytest.raises(FoldLimitError):
                    fold_to_alcove(datum, x)


def test_fold_walk_bounded(data):
    # after the coroot pre-translation a fold's walk is bounded by a
    # constant of the type, however far out the point lies
    rng = random.Random("fold walk")
    for row in theorem_table(8).rows:
        datum = data(str(row.rstype))
        bound = 2 * len(datum.positive_roots) + 2
        for _ in range(40):
            x = tuple(
                Fraction(rng.randint(-(10**40), 10**40), rng.choice((1, 2, 3, 7)))
                for _ in range(datum.rank)
            )
            pts, N = _numerators((x,))
            assert _fold(datum, pts, N) <= bound, (row.rstype, x)


def _affine_weyl_image(datum, rng, point, moves):
    """point moved by random simple reflections, the affine reflection and
    coroot translations, written out from the Cartan matrix."""
    d = datum.rank
    cartan = datum.cartan
    t = list(point)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0:
            w = rng.randrange(d)
            tw = t[w]
            t = [t[j] - tw * cartan[j][w] for j in range(d)]
        elif kind == 1:
            g = sum(m * v for m, v in zip(datum.highest_root_coeffs, t)) - 1
            t = [t[j] - g * datum.alpha0_coroot_row[j] for j in range(d)]
        else:
            k = rng.randrange(d)
            sign = rng.choice((1, -1))
            t = [t[j] + sign * cartan[j][k] for j in range(d)]
    return tuple(t)


@pytest.mark.parametrize("name", FAMILY_TYPES)
def test_vertex_type_of_corner_images(data, name):
    datum = data(name)
    rng = random.Random(f"corners {name}")
    for i in range(datum.rank + 1):
        corner = alcove_vertex(datum, i)
        for _ in range(4):
            image = _affine_weyl_image(datum, rng, corner, 12)
            assert vertex_type(datum, image) == i


def _reference_type(datum, x):
    """Index of the alcove corner x folds onto by the Fraction reference
    fold, or None when it folds onto no corner."""
    (folded,), _ = _reference_fold(datum, x, ())
    corners = [alcove_vertex(datum, i) for i in range(datum.rank + 1)]
    return corners.index(folded) if folded in corners else None


@pytest.mark.parametrize("name", [str(row.rstype) for row in theorem_table(5).rows])
def test_residue_table_matches_orbits(data, residue_orbits, name):
    # the table's BFS against the union of the fixture's corner orbits:
    # each class once, with marks . rho beside it
    datum = data(name)
    table = _residues(datum)
    assert len(table.residues) == len(set(table.residues))
    assert set(table.residues) == set().union(*residue_orbits(datum))
    marks = datum.highest_root_coeffs
    assert table.heights == [sum(map(mul, marks, rho)) for rho in table.residues]


@pytest.mark.parametrize("name", [str(row.rstype) for row in theorem_table(5).rows])
def test_type_of_matches_reference_fold(name):
    # random integer points over the scale, and corners moved by affine
    # Weyl elements and then by coweight translations (integer shifts of
    # the coordinates, not only coroots), which permute the types
    datum = build_root_datum(parse_type(name))
    d, scale = datum.rank, datum.scale
    tester = _tester(datum)
    rng = random.Random(f"type {name}")
    points = [[rng.randint(-3 * scale, 3 * scale) for _ in range(d)] for _ in range(40)]
    for _ in range(60):
        corner = alcove_vertex(datum, rng.randrange(d + 1))
        image = _affine_weyl_image(datum, rng, corner, 6)
        points.append([v + scale * rng.randint(-3, 3) for v in scaled_coords(datum, image)])
    types = set()
    for a in points:
        x = tuple(Fraction(v, scale) for v in a)
        expected = _reference_type(datum, x)
        assert tester.type_of(a) == expected, a
        if expected is None:
            with pytest.raises(NotAVertexError):
                vertex_type(datum, x)
        else:
            assert vertex_type(datum, x) == expected
        types.add(expected)
    assert types >= set(range(d + 1))


@pytest.mark.parametrize("name, r", [("E6", 3), ("E7", 2), ("D5", 3), ("A5", 3)])
def test_type_of_census_translates(name, r):
    # the census vertices moved by random coweights keep their residues,
    # so the memo's type of each must be shifted by the coweight's class
    datum = build_root_datum(parse_type(name))
    d, scale = datum.rank, datum.scale
    tester = _tester(datum)
    rng = random.Random(f"translate {name}")
    shifted = 0
    for x in iter_scaled_alcove_vertices(datum, r):
        lam = [rng.randint(-3, 3) for _ in range(d)]
        y = tuple(t + s for t, s in zip(x, lam))
        expected = _reference_type(datum, y)
        assert tester.type_of(scaled_coords(datum, y)) == expected
        assert vertex_type(datum, y) == expected
        shifted += expected != _reference_type(datum, x)
    assert shifted


@pytest.mark.parametrize(
    "name, r, folds", [("E8", 3, 0), ("E6", 4, 0), ("A7", 4, 0), ("E7", 3, 19)]
)
def test_ball_sum_fold_count(monkeypatch, name, r, folds):
    # a fresh tester types each residue that passes the integral-root
    # screen once, and each (class, type) shift once, from its certificate,
    # and folds only where the certificate is ambiguous; the census reads
    # its types from the memo.  E8, E6 and A7 (one residue, and the seven
    # nonzero classes of P^v/Q^v = Z/8) fold nothing; E7 folds the
    # residues whose invariants corners 1 and 6 share with other points
    datum = build_root_datum(parse_type(name))
    fold = apartment._fold
    calls = []
    monkeypatch.setattr(apartment, "_fold", lambda *args: calls.append(1) or fold(*args))
    ball_sum(datum, r)
    assert len(calls) == folds


@pytest.mark.parametrize("name, r", [("E8", 3), ("E7", 3), ("A7", 4)])
def test_walk_passes_its_count_on(monkeypatch, name, r):
    # on a memo miss the walk hands the integral-root count its screen has
    # just read to the certificate, so a walk on a fresh datum whose tester
    # is built reads no count of its own
    datum = build_root_datum(parse_type(name))
    tester = _tester(datum)
    grid_count = apartment._VertexTester.grid_count
    calls = []

    def counted(self, key):
        calls.append(key)
        return grid_count(self, key)

    monkeypatch.setattr(apartment._VertexTester, "grid_count", counted)
    assert list(iter_scaled_alcove_vertices(datum, r))
    assert tester.memo and not calls


def test_class_rows_split_like_the_full_inverse(data):
    # coweight_class reads the fewest rows of the integer inverse Cartan
    # matrix that tell the classes of P^v/Q^v apart: one, two on D_n with n
    # even, none where P^v = Q^v.  On seeded random coweights meeting every
    # class it splits them as the full inverse_rows . lam mod D does
    rng = random.Random("class rows")
    for row in theorem_table(8).rows:
        name, d = str(row.rstype), row.rank
        tester = _tester(data(name))
        D = tester.inverse_denom
        expected = 0 if D == 1 else 2 if name[0] == "D" and d % 2 == 0 else 1
        assert len(tester.class_rows) == expected, name
        pairs = set()
        for _ in range(300):
            lam = [rng.randint(-6, 6) for _ in range(d)]
            full = tuple(sum(map(mul, r, lam)) % D for r in tester.inverse_rows)
            pairs.add((full, tester.coweight_class(lam)))
        fulls, classes = {full for full, _ in pairs}, {cls for _, cls in pairs}
        assert len(fulls) == len(classes) == len(pairs) == D, name


def _support_rule_counts(datum):
    """For each mask J' of simple walls, the positive roots alpha with
    supp alpha in J' and those with supp(theta - alpha) in J', summed over
    the submasks of J' by a subset-sum transform."""
    d = datum.rank
    theta = datum.highest_root_coeffs

    def mask(coeffs):
        return sum(1 << i for i, c in enumerate(coeffs) if c)

    inside, below_top = [0] * (1 << d), [0] * (1 << d)
    for root in datum.positive_roots:
        inside[mask(root)] += 1
        below_top[mask([h - c for h, c in zip(theta, root)])] += 1
    for i in range(d):
        for m in range(1 << d):
            if m >> i & 1:
                inside[m] += inside[m ^ 1 << i]
                below_top[m] += below_top[m ^ 1 << i]
    return inside, below_top


# the certificate's size: grid points of the closed alcove over the
# maximal denominators, with repeats; d + 1 on A_n, d + 2 on B_n and C_n
# and d + 7 on D_n
CERTIFICATE_SIZES = {"E6": 29, "E7": 37, "E8": 52, "F4": 12, "G2": 5}
FAMILY_SIZES = {"A": 1, "B": 2, "C": 2, "D": 7}
# the corner types whose invariants the certificate leaves ambiguous, on
# the types of theorem_table(8) that have any
AMBIGUOUS_TYPES = {
    "C3": {1, 2}, "C4": {1, 3}, "C5": {1, 2, 3, 4}, "C6": {1, 2, 4, 5},
    "C7": {1, 2, 3, 4, 5, 6}, "C8": {1, 2, 3, 5, 6, 7},
    "D6": {2, 4}, "D8": {2, 3, 5, 6}, "E7": {1, 6},
}


def test_certificate_counts_match_support_rule(data):
    # each grid point of the closed alcove has as many integral positive
    # roots as the extended diagram's walls through it allow: those
    # supported on the simple walls J' through it, and when the affine
    # wall passes through it also those alpha with theta - alpha
    # supported on J'.  The points are those of (1/c)P^v in the closed
    # alcove, their number the certificate's size
    for row in theorem_table(8).rows:
        name = str(row.rstype)
        datum = data(name)
        d, scale, marks = datum.rank, datum.scale, datum.highest_root_coeffs
        tester = _tester(datum)
        inside, below_top = _support_rule_counts(datum)
        points = tester.alcove_points()
        size = CERTIFICATE_SIZES.get(name) or d + FAMILY_SIZES[name[0]]
        assert len(points) == size, name
        per_grid = Counter()
        for a in points:
            t = [Fraction(v, scale) for v in a]
            assert in_scaled_alcove(datum, 1, t), (name, a)
            per_grid[a] += 1
            walls = sum(1 << i for i, v in enumerate(a) if v == 0)
            on_top = sum(map(mul, marks, a)) == scale
            expected = inside[walls] + (below_top[walls] if on_top else 0)
            assert tester.invariants(a)[0] == expected == _integral_roots(datum, t), (name, a)
        # a point is listed once per maximal grid holding it
        for a, k in per_grid.items():
            den = tester.invariants(a)[1]
            assert k == sum(c % den == 0 for c in _maximal_denominators(datum)), (name, a)


def test_certificate_points_are_the_grid_scan(data):
    # the closed alcove's points of each maximal grid against a scan of
    # the whole cube [0, c]^d, where the scan is small
    for name in ("B3", "C4", "D5", "F4", "G2"):
        datum = data(name)
        marks = datum.highest_root_coeffs
        scan = []
        for c in _maximal_denominators(datum):
            step = datum.scale // c
            scan += [
                tuple(step * v for v in n)
                for n in product(range(c + 1), repeat=datum.rank)
                if sum(map(mul, marks, n)) <= c
            ]
        assert sorted(_tester(datum).alcove_points()) == sorted(scan)


def test_certificate_decided_types(data):
    # the corner types whose invariants the certificate maps to them
    # alone, pinned for every type of theorem_table(8)
    for row in theorem_table(8).rows:
        name = str(row.rstype)
        datum = data(name)
        tester = _tester(datum)
        certificate = tester.certificate
        ambiguous = {i for a, i in tester.corners.items() if certificate[tester.invariants(a)] != i}
        assert ambiguous == AMBIGUOUS_TYPES.get(name, set()), name
        for a, i in tester.corners.items():
            assert certificate[tester.invariants(a)] in (i, apartment._AMBIGUOUS)


def _grid_keys(datum, rng, sample):
    """The corners, then the residues of every maximal grid, or sample
    random ones per grid."""
    d, scale = datum.rank, datum.scale
    keys = list(_tester(datum).corners)
    for c in _maximal_denominators(datum):
        step = scale // c
        if sample is None:
            keys += [tuple(step * v for v in z) for z in product(range(c), repeat=d)]
        else:
            keys += [tuple(step * rng.randrange(c) for _ in range(d)) for _ in range(sample)]
    return keys


@pytest.mark.parametrize(
    "name, sample",
    [("A3", None), ("B3", None), ("C3", None), ("D4", None), ("G2", None), ("F4", None),
     ("E6", 150), ("E7", 150), ("E8", 100)],
)
def test_certificate_matches_fold(data, name, sample):
    # the fold of a grid point, a residue or an integer translate of one,
    # is a grid point of the closed alcove with the same invariants; a
    # decided entry of the certificate is the corner that fold lands on
    datum = data(name)
    d, scale = datum.rank, datum.scale
    tester = _tester(datum)
    certificate = tester.certificate
    points = set(tester.alcove_points())
    rng = random.Random(f"certificate {name}")
    outcomes = Counter()
    for key in _grid_keys(datum, rng, sample):
        for a in (key, tuple(v + scale * rng.randint(-3, 3) for v in key)):
            folded = list(a)
            _fold(datum, [folded], scale)
            folded = tuple(folded)
            assert folded in points
            invariants = tester.invariants(a)
            assert tester.invariants(folded) == invariants
            expected = tester.corners.get(folded)
            decision = certificate[invariants]
            assert decision in (expected, apartment._AMBIGUOUS), a
            assert tester.certified_type(a) == expected, a
            screened = invariants[0] in tester.corner_counts
            outcomes[decision == apartment._AMBIGUOUS, expected is not None, screened] += 1
    # decided vertices are met, decided non-vertices with a corner's count
    # on the types whose grids have them, and ambiguous entries on the
    # types whose corners have them
    assert outcomes[False, True, True]
    assert bool(outcomes[False, False, True]) == (name in ("E7", "E8"))
    assert bool(outcomes[True, True, True] + outcomes[True, False, True]) == (name in AMBIGUOUS_TYPES)
