"""Exact arguments at the boundary: bools and floats are refused."""

import hashlib
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import alcove
from alcove import (
    AlcoveError,
    ConcaveFunction,
    QPolynomial,
    ValidationError,
    adjacent,
    alcove_vertex,
    apartment_ball,
    as_point,
    ball_sum,
    build_root_datum,
    cartan_matrix,
    cind_sandwich,
    eval_root,
    filtration_contains,
    fold_pair,
    fold_to_alcove,
    in_scaled_alcove,
    integers_strictly_between,
    is_special,
    is_vertex,
    iter_scaled_alcove_vertices,
    iter_wall_ball_points,
    make_function,
    max_two_rho,
    omega_function,
    optimize,
    origin,
    parabolic_shift,
    parse_type,
    point_function,
    pointwise_max,
    positive_root_count,
    quotient_ball_sum,
    quotient_exponents,
    scaled_coords,
    shift,
    simplicial_distance,
    simplicial_distances,
    validate_type,
    vertex_type,
    wall_count,
    wall_distance,
)


def _holding(f, v):
    """f with the value v at its first root, built directly, so that
    only the function's own check on being built sees v."""
    first = next(iter(f.values))
    return ConcaveFunction(at_zero=f.at_zero, values={**f.values, first: v})


# each call gets the A2 datum and its origin; the bad argument is the last
# positional or the keyword shown
CALLS = {
    "iter_scaled_alcove_vertices r": lambda d, o, v: list(iter_scaled_alcove_vertices(d, v)),
    "iter_scaled_alcove_vertices budget": lambda d, o, v: list(
        iter_scaled_alcove_vertices(d, 1, budget=v)
    ),
    "iter_wall_ball_points r": lambda d, o, v: list(iter_wall_ball_points(d, o, v)),
    "iter_wall_ball_points budget": lambda d, o, v: list(iter_wall_ball_points(d, o, 1, budget=v)),
    "apartment_ball r": lambda d, o, v: apartment_ball(d, o, v),
    "simplicial_distance budget": lambda d, o, v: simplicial_distance(d, o, o, v),
    "simplicial_distance candidate_budget": lambda d, o, v: simplicial_distance(
        d, o, (1, 0), 2, candidate_budget=v
    ),
    "simplicial_distance candidate_budget, x == y": lambda d, o, v: simplicial_distance(
        d, o, o, 2, candidate_budget=v
    ),
    "simplicial_distances max_depth": lambda d, o, v: simplicial_distances(d, o, v),
    "simplicial_distances candidate_budget": lambda d, o, v: simplicial_distances(
        d, o, 1, candidate_budget=v
    ),
    "simplicial_distances lookup": lambda d, o, v: simplicial_distances(d, o, 1).get((v, 0)),
    "ball_sum r": lambda d, o, v: ball_sum(d, v),
    "quotient_ball_sum r": lambda d, o, v: quotient_ball_sum(d, v, 1),
    "quotient_ball_sum r_prime": lambda d, o, v: quotient_ball_sum(d, 1, v),
    "max_two_rho r": lambda d, o, v: max_two_rho(d, v),
    "cind_sandwich R": lambda d, o, v: cind_sandwich(d, v, 1),
    "cind_sandwich r": lambda d, o, v: cind_sandwich(d, 0, v),
    "quotient_exponents r_prime": lambda d, o, v: quotient_exponents(d, (2, 1), v),
    "filtration_contains r1": lambda d, o, v: filtration_contains(d, o, v, o, 0),
    "filtration_contains r2": lambda d, o, v: filtration_contains(d, o, 3, o, v),
    "as_point": lambda d, o, v: as_point(d, [v, 0]),
    "eval_root point": lambda d, o, v: eval_root(d, (1, 0), (v, 0)),
    "eval_root root": lambda d, o, v: eval_root(d, (v, 0), (1, 0)),
    "wall_count alpha": lambda d, o, v: wall_count(d, o, (2, 0), (v, 0)),
    # the comprehension keeps the bad key object; a dict update would keep the int key
    "make_function key": lambda d, o, v: make_function(
        d, 0, {((v, 0) if r == (1, 0) else r): 0 for r in d.all_roots()}
    ),
    "is_root": lambda d, o, v: d.is_root((v, 0)),
    "integers_strictly_between": lambda d, o, v: integers_strictly_between(v, 3),
    "alcove_vertex i": lambda d, o, v: alcove_vertex(d, v),
    "in_scaled_alcove r": lambda d, o, v: in_scaled_alcove(d, v, o),
    "shift r": lambda d, o, v: shift(point_function(d, o), v),
    "make_function at_zero": lambda d, o, v: make_function(d, v, dict.fromkeys(d.all_roots(), 0)),
    "make_function value": lambda d, o, v: make_function(d, 0, dict.fromkeys(d.all_roots(), v)),
    "optimize value": lambda d, o, v: optimize(d, _holding(point_function(d, o), v)),
    "pointwise_max value": lambda d, o, v: pointwise_max(
        point_function(d, o), _holding(point_function(d, o), v)
    ),
    "omega_function points": lambda d, o, v: omega_function(d, v),
    "parse_type text": lambda d, o, v: parse_type(v),
    "QPolynomial terms": lambda d, o, v: QPolynomial(v),
    "QPolynomial.evaluate q": lambda d, o, v: QPolynomial({0: 1, 2: 3}).evaluate(v),
    "ConcaveFunction root": lambda d, o, v: point_function(d, o)(v),
    "validate_type rstype": lambda d, o, v: validate_type(v),
    "build_root_datum rstype": lambda d, o, v: build_root_datum(v),
    "cartan_matrix rstype": lambda d, o, v: cartan_matrix(v),
    "positive_root_count rstype": lambda d, o, v: positive_root_count(v),
}


@pytest.mark.parametrize("value", [True, 1.0, 0.1], ids=["bool", "float", "float-0.1"])
@pytest.mark.parametrize("entry", sorted(CALLS))
def test_inexact_arguments_rejected(data, entry, value):
    a2 = data("A2")
    with pytest.raises(ValidationError):
        CALLS[entry](a2, origin(a2), value)


# small integers keep every call cheap; strings stay short enough that
# Fraction() never reads a huge exponent
SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers(-3, 3) | st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
# a dict key must be hashable: tuples and frozensets stand in for lists and dicts
HASHABLE_JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None)
@given(draw=st.data())
@pytest.mark.parametrize("entry", sorted(CALLS))
def test_junk_arguments_raise_typed_errors(data, entry, draw):
    """Whatever a public entry makes of a junk value, every exception it
    raises is an AlcoveError: a raw TypeError is exit code 4 in the CLI
    and escapes a library caller's except ValidationError."""
    junk = draw.draw(HASHABLE_JUNK if entry == "make_function key" else JUNK)
    a2 = data("A2")
    try:
        CALLS[entry](a2, origin(a2), junk)
    except AlcoveError:
        pass


# every public callable's point parameter, keyed "callable parameter"; each
# call gets the A2 datum, its origin and the bad point p
POINT_ARGUMENTS = {
    "adjacent x": lambda d, o, p: adjacent(d, p, o),
    "adjacent y": lambda d, o, p: adjacent(d, o, p),
    "apartment_ball center": lambda d, o, p: apartment_ball(d, p, 1),
    "as_point values": lambda d, o, p: as_point(d, p),
    "eval_root point": lambda d, o, p: eval_root(d, (1, 0), p),
    "filtration_contains x": lambda d, o, p: filtration_contains(d, p, 1, o, 0),
    "filtration_contains y": lambda d, o, p: filtration_contains(d, o, 1, p, 0),
    "fold_pair x": lambda d, o, p: fold_pair(d, p, o),
    "fold_pair y": lambda d, o, p: fold_pair(d, o, p),
    "fold_to_alcove x": lambda d, o, p: fold_to_alcove(d, p),
    "in_scaled_alcove x": lambda d, o, p: in_scaled_alcove(d, 1, p),
    "is_special x": lambda d, o, p: is_special(d, p),
    "is_vertex x": lambda d, o, p: is_vertex(d, p),
    "iter_wall_ball_points center": lambda d, o, p: list(iter_wall_ball_points(d, p, 1)),
    "point_function x": lambda d, o, p: point_function(d, p),
    "quotient_exponents x": lambda d, o, p: quotient_exponents(d, p),
    "scaled_coords x": lambda d, o, p: scaled_coords(d, p),
    "simplicial_distance x": lambda d, o, p: simplicial_distance(d, p, o, 1),
    "simplicial_distance y": lambda d, o, p: simplicial_distance(d, o, p, 1),
    "simplicial_distances source": lambda d, o, p: simplicial_distances(d, p, 1),
    "vertex_type x": lambda d, o, p: vertex_type(d, p),
    "wall_count x": lambda d, o, p: wall_count(d, p, o, (1, 0)),
    "wall_count y": lambda d, o, p: wall_count(d, o, p, (1, 0)),
    "wall_distance x": lambda d, o, p: wall_distance(d, p, o),
    "wall_distance y": lambda d, o, p: wall_distance(d, o, p),
}

# public parameters with a point's name that hold something else: the
# values of a concave function map roots to rationals
NOT_POINTS = {"ConcaveFunction values", "make_function values"}

POINT_NAMES = {"x", "y", "center", "source", "point", "lo", "hi", "values"}


@pytest.mark.parametrize(
    "bad", ["10", {1, 2}, {0: 1, 1: 2}, 5, None], ids=["str", "set", "dict", "int", "None"]
)
@pytest.mark.parametrize("entry", sorted(POINT_ARGUMENTS))
def test_point_arguments_refuse_unordered(data, entry, bad):
    """A string would be read character by character, a set or mapping
    in no fixed coordinate order; a number or None has no coordinates."""
    a2 = data("A2")
    with pytest.raises(ValidationError):
        POINT_ARGUMENTS[entry](a2, origin(a2), bad)


def _public_parameters():
    """("callable parameter", parameter) for every public callable."""
    for name in alcove.__all__:
        obj = getattr(alcove, name)
        if not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # exception classes and type aliases
            continue
        for p in parameters:
            yield f"{name} {p.name}", p


def test_point_argument_table_complete():
    """Every public parameter named like a point is in POINT_ARGUMENTS,
    or in NOT_POINTS."""
    named = {key for key, p in _public_parameters() if p.name in POINT_NAMES}
    assert named - NOT_POINTS - set(POINT_ARGUMENTS) == set()


# every public callable's root, index-list or mapping parameter, keyed
# "callable parameter"; each call gets the A2 datum and the bad value v
CONTAINER_ARGUMENTS = {
    "eval_root root": lambda d, v: eval_root(d, v, (1, 0)),
    "wall_count alpha": lambda d, v: wall_count(d, origin(d), (2, 0), v),
    "is_root": lambda d, v: d.is_root(v),
    "ConcaveFunction values": lambda d, v: ConcaveFunction(0, v),
    "make_function values": lambda d, v: make_function(d, 0, v),
    "parabolic_shift levi": lambda d, v: parabolic_shift(d, v),
}


@pytest.mark.parametrize("bad", ["10", 5, None], ids=["str", "int", "None"])
@pytest.mark.parametrize("entry", sorted(CONTAINER_ARGUMENTS))
def test_container_arguments_refuse_non_containers(data, entry, bad):
    """A number or None is no container; a string holds no integers and
    is no mapping."""
    with pytest.raises(ValidationError):
        CONTAINER_ARGUMENTS[entry](data("A2"), bad)


# every public parameter with a default, keyed "callable parameter", and who
# sets it outside the tests.  The enumeration-budget contract: every entry
# that enumerates vertices takes a budget bounding its work (exit 3 past it).
OPTIONS = {
    "QPolynomial terms": "the library: QPolynomial() is the zero polynomial",
    "apartment_ball budget": "the enumeration-budget contract",
    "ball_sum budget": "CLI ball --budget",
    "cind_sandwich budget": "CLI sandwich --budget",
    "enumerate_scaled_alcove_vertices budget": "the enumeration-budget contract",
    "iter_scaled_alcove_vertices budget": "CLI verify --budget; census and pairs workloads",
    "iter_wall_ball_points budget": "CLI verify --budget",
    "max_two_rho budget": "the enumeration-budget contract",
    "quotient_ball_sum budget": "the enumeration-budget contract",
    "quotient_exponents r_prime": "pairs workload",
    "simplicial_distance candidate_budget": "CLI distance --budget; search workload",
    "simplicial_distances candidate_budget": "search workload",
    "theorem_table max_classical_rank": "CLI table --max-rank",
}


def test_public_options_listed():
    """Every public parameter with a default is in OPTIONS: a value only
    the tests set is no option."""
    defaulted = {key for key, p in _public_parameters() if p.default is not p.empty}
    assert defaulted == set(OPTIONS)


def test_public_surface_pinned():
    """alcove.__all__ names each export once, is the 74 names pinned by
    its digest, and holds every public attribute of the package: the
    tables above iterate __all__, so a name reachable as alcove.X but
    missing from it would escape them."""
    names = alcove.__all__
    assert len(names) == len(set(names))
    digest = hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()
    assert digest == "4ec00f2d9c1130a6a5bbb5d2aa23bfd62e6816266c2985af4aa361c61244b1ec"
    public = {
        name
        for name, value in vars(alcove).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(names)


def test_exact_arguments_accepted(data):
    a2 = data("A2")
    assert as_point(a2, [1, Fraction(1, 2)]) == (Fraction(1), Fraction(1, 2))
    assert in_scaled_alcove(a2, Fraction(1, 2), (Fraction(1, 4), Fraction(1, 4)))
    assert ball_sum(a2, 1).vertex_count_chamber == 3
    assert quotient_exponents(a2, (2, 1), 2) == 2


def test_messages_kept(data):
    a2 = data("A2")
    o = origin(a2)
    cases = [
        (lambda: list(iter_scaled_alcove_vertices(a2, True)), "scaling factor must be a nonnegative integer"),
        (lambda: list(iter_scaled_alcove_vertices(a2, 1, budget=0)), "budget must be positive"),
        (lambda: simplicial_distances(a2, o, True), "search depth must be a nonnegative integer"),
        (lambda: quotient_exponents(a2, (2, 1), True), "cap level must be a positive integer"),
        (lambda: ball_sum(a2, True), "radius must be a nonnegative integer"),
        (lambda: filtration_contains(a2, o, 1.5, o, 0), "levels must be integers"),
        (lambda: shift(point_function(a2, o), 0.1), "not an exact rational number: 0.1 is a float"),
        (lambda: as_point(a2, [0.1, 0]), "not an exact rational number: 0.1 is a float"),
        (lambda: apartment_ball(data("B2"), (Fraction(1, 2), 0), 1), r"\(1/2, 0\) is not a vertex"),
        (
            lambda: quotient_exponents(a2, (-1, 0)),
            r"\(-1, 0\) is outside the closed chamber; fold it before calling",
        ),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()
