"""Exact arguments at the boundary: bools and floats are refused."""

from fractions import Fraction

import pytest

from alcove import (
    ConcaveFunction,
    ValidationError,
    alcove_vertex,
    apartment_ball,
    as_point,
    ball_sum,
    cind_sandwich,
    eval_root,
    filtration_contains,
    fold_pair,
    fold_to_alcove,
    in_scaled_alcove,
    integers_strictly_between,
    iter_scaled_alcove_vertices,
    iter_wall_ball_points,
    make_function,
    max_two_rho,
    optimize,
    origin,
    point_function,
    pointwise_max,
    quotient_ball_sum,
    quotient_exponents,
    shift,
    simplicial_distance,
    simplicial_distances,
)

def _holding(f, v):
    """f with the value v at its first root, built directly so that no
    check sees v."""
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
    "integers_strictly_between": lambda d, o, v: integers_strictly_between(v, 3),
    "alcove_vertex i": lambda d, o, v: alcove_vertex(d, v),
    "fold_to_alcove max_steps": lambda d, o, v: fold_to_alcove(d, o, max_steps=v),
    "fold_pair max_steps": lambda d, o, v: fold_pair(d, o, o, max_steps=v),
    "in_scaled_alcove r": lambda d, o, v: in_scaled_alcove(d, v, o),
    "shift r": lambda d, o, v: shift(point_function(d, o), v),
    "make_function at_zero": lambda d, o, v: make_function(d, v, dict.fromkeys(d.all_roots(), 0)),
    "make_function value": lambda d, o, v: make_function(d, 0, dict.fromkeys(d.all_roots(), v)),
    "optimize value": lambda d, o, v: optimize(d, _holding(point_function(d, o), v)),
    "pointwise_max value": lambda d, o, v: pointwise_max(
        point_function(d, o), _holding(point_function(d, o), v)
    ),
}


@pytest.mark.parametrize("value", [True, 1.0, 0.1], ids=["bool", "float", "float-0.1"])
@pytest.mark.parametrize("entry", sorted(CALLS))
def test_inexact_arguments_rejected(data, entry, value):
    a2 = data("A2")
    with pytest.raises(ValidationError):
        CALLS[entry](a2, origin(a2), value)


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
        (lambda: fold_to_alcove(a2, o, max_steps=None), "fold limit must be a nonnegative integer"),
        (lambda: apartment_ball(data("B2"), (Fraction(1, 2), 0), 1), r"\(1/2, 0\) is not a vertex"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()
