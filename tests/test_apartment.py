"""Alcove geometry: membership, vertex tests, folding, enumeration."""

import random
from fractions import Fraction
from itertools import product
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from alcove import (
    DimensionMismatchError,
    EnumerationLimitError,
    FoldLimitError,
    NotAVertexError,
    ValidationError,
    alcove_vertex,
    as_point,
    build_root_datum,
    enumerate_box_vertices,
    enumerate_scaled_alcove_vertices,
    eval_root,
    fold_pair,
    fold_to_alcove,
    in_scaled_alcove,
    is_special,
    is_vertex,
    iter_box_vertices,
    iter_scaled_alcove_vertices,
    origin,
    parse_type,
    scaled_coords,
    vertex_type,
)


def _fraction_rank(rows, d):
    """Plain Gaussian elimination over Fraction, written independently."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(d):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _oracle_is_vertex(datum, x):
    integral = [
        r for r in datum.positive_roots if eval_root(datum, r, x).denominator == 1
    ]
    return _fraction_rank(integral, datum.rank) == datum.rank


def test_as_point_validation(data):
    a2 = data("A2")
    assert as_point(a2, [1, Fraction(1, 2)]) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(DimensionMismatchError):
        as_point(a2, [1])
    with pytest.raises(ValidationError):
        as_point(a2, [1, "x"])


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


def test_is_vertex_against_elimination_oracle(data):
    for name in ("A2", "B2", "G2"):
        datum = data(name)
        scale = datum.scale
        for a in product(range(-scale, 2 * scale + 1), repeat=datum.rank):
            x = tuple(Fraction(v, scale) for v in a)
            assert is_vertex(datum, x) == _oracle_is_vertex(datum, x)


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


def test_enumeration_equals_grid_scan(data):
    for name, radii in (("A2", (0, 1, 2, 3)), ("B2", (1, 2, 3)), ("G2", (1, 2, 3)), ("C3", (1, 2))):
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
                if _oracle_is_vertex(datum, x):
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


def test_box_vertices(data):
    a2 = data("A2")
    vs = enumerate_box_vertices(a2, (0, 0), (1, 1))
    assert set(vs.points) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    }
    with pytest.raises(ValidationError):
        enumerate_box_vertices(a2, (1, 0), (0, 1))


def test_box_vertices_grid_scan(data):
    g2 = data("G2")
    scale = g2.scale
    slow = set()
    for a in product(range(-scale, scale + 1), repeat=2):
        x = tuple(Fraction(v, scale) for v in a)
        if _oracle_is_vertex(g2, x):
            slow.add(x)
    fast = set(p for p in enumerate_box_vertices(g2, (-1, -1), (1, 1)).points)
    assert fast == slow


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
    assert_least_budget(lambda b: list(iter_box_vertices(g2, (-1, -1), (1, 1), budget=b)), 74)


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

    ainv = datum.cartan_inverse
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


FAMILY_TYPES = ("A2", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2")


def _random_rational_point(rng, d, denominators=(1, 2, 3, 5, 7, 11)):
    # denominators 5, 7 and 11 divide no scale, so most points are off-grid
    return tuple(Fraction(rng.randint(-40, 40), rng.choice(denominators)) for _ in range(d))


@pytest.mark.parametrize("name", FAMILY_TYPES)
def test_fold_matches_reference(data, name):
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
        assert fold_to_alcove(datum, x, max_steps=steps) == fx
        if steps:
            with pytest.raises(FoldLimitError):
                fold_to_alcove(datum, x, max_steps=steps - 1)


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
