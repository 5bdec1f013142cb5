"""Exact arguments at the boundary: bools and floats are refused."""

from fractions import Fraction

import pytest

from alcove import (
    ValidationError,
    apartment_ball,
    as_point,
    ball_sum,
    cind_sandwich,
    filtration_contains,
    in_scaled_alcove,
    iter_scaled_alcove_vertices,
    iter_wall_ball_points,
    max_two_rho,
    origin,
    quotient_ball_sum,
    quotient_exponents,
    simplicial_distance,
    simplicial_distances,
)

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
    "simplicial_distances max_depth": lambda d, o, v: simplicial_distances(d, o, v),
    "simplicial_distances candidate_budget": lambda d, o, v: simplicial_distances(
        d, o, 1, candidate_budget=v
    ),
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
    "in_scaled_alcove r": lambda d, o, v: in_scaled_alcove(d, v, o),
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
    ]
    for call, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()
