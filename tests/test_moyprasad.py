"""Concave-function calculus and filtration index exponents."""

import random
import re
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from alcove import (
    ConcaveFunction,
    DominationError,
    EmptySetError,
    LevelMismatchError,
    NonConcaveError,
    NotARootError,
    NotInChamberError,
    ValidationError,
    build_root_datum,
    enumerate_scaled_alcove_vertices,
    eval_root,
    filtration_contains,
    index_exponent,
    is_concave,
    make_function,
    omega_function,
    optimize,
    parse_type,
    point_function,
    pointwise_max,
    quotient_exponents,
    shift,
    wall_distance,
)
from alcove.moyprasad import _addition_table


def F(a, b=1):
    return Fraction(a, b)


def test_point_function_values(data):
    a2 = data("A2")
    f = point_function(a2, (F(1), F(2)))
    assert f.at_zero == 0
    assert f((1, 0)) == -1
    assert f((0, 1)) == -2
    assert f((1, 1)) == -3
    assert f((-1, -1)) == 3


def test_call_raises_typed_errors(data):
    """Only a root of the function's system has a value; any other
    argument is an AlcoveError, never a raw KeyError or TypeError."""
    f = point_function(data("A2"), (F(1), F(2)))
    for not_a_root in [(5, 5), (0, 0), (1, 0, 0), []]:
        with pytest.raises(NotARootError, match=r"is not a root of this function$"):
            f(not_a_root)
    # non-iterables, and coefficients that are no integers: text, nested
    # (unhashable) lists, bools and floats that would hash as a root's ints
    for bad in [5, None, "ab", [[1], 0], [[1, 0]], (True, 0), (1.0, 0)]:
        with pytest.raises(ValidationError):
            f(bad)


def test_point_function_concave(data):
    for name in ("A2", "B2", "G2"):
        datum = data(name)
        assert is_concave(datum, point_function(datum, (F(1, 2), F(1, 3))))


def test_omega_function(data):
    a2 = data("A2")
    x, y = (F(1), F(0)), (F(0), F(1))
    om = omega_function(a2, [x, y])
    fx, fy = point_function(a2, x), point_function(a2, y)
    for root in a2.all_roots():
        assert om(root) == max(fx(root), fy(root))
    assert is_concave(a2, om)
    with pytest.raises(EmptySetError):
        omega_function(a2, [])


def test_make_function_totality(data):
    a2 = data("A2")
    with pytest.raises(ValidationError):
        make_function(a2, 0, {(1, 0): 1})
    values = {r: 1 for r in a2.all_roots()}
    f = make_function(a2, 0, values)
    assert is_concave(a2, f)


def test_non_concave_detected(data):
    a2 = data("A2")
    # f(a) + f(-a) >= f(0) fails
    f = make_function(a2, 1, {r: 0 for r in a2.all_roots()})
    assert not is_concave(a2, f)
    # additivity fails: f(a)+f(b) < f(a+b)
    values = {r: 0 for r in a2.all_roots()}
    values[(1, 1)] = 5
    g = make_function(a2, 0, values)
    assert not is_concave(a2, g)
    # negative value at zero fails
    h = make_function(a2, -1, {r: 10 for r in a2.all_roots()})
    assert not is_concave(a2, h)


def test_optimize_rule(data):
    a2 = data("A2")
    values = {
        (1, 0): F(5, 2),
        (0, 1): F(2),
        (1, 1): F(0),
        (-1, 0): F(-1, 2),
        (0, -1): F(-1),
        (-1, -1): F(7, 3),
    }
    f = make_function(a2, 0, values)
    g = optimize(a2, f)
    assert g((1, 0)) == 3  # non-integer rounds up
    assert g((0, 1)) == 3  # integer steps by one
    assert g((1, 1)) == 1
    assert g((-1, 0)) == 0
    assert g((0, -1)) == 0
    assert g((-1, -1)) == 3
    assert g.at_zero == 1  # same rule at zero


def test_shift_and_pointwise_max(data):
    a2 = data("A2")
    f = point_function(a2, (F(1), F(0)))
    g = shift(f, F(3, 2))
    assert g.at_zero == F(3, 2)
    assert g((1, 0)) == F(1, 2)
    h = pointwise_max(f, point_function(a2, (F(0), F(1))))
    om = omega_function(a2, [(F(1), F(0)), (F(0), F(1))])
    assert h.values == om.values
    assert h.at_zero == om.at_zero
    for other in ("B2", "A1"):
        with pytest.raises(ValidationError, match="^functions live on different root systems$"):
            pointwise_max(f, point_function(data(other), (F(0),) * data(other).rank))


def test_index_exponent_a1(data):
    a1 = data("A1")
    o = (F(0),)
    f = shift(point_function(a1, o), 1)
    g = shift(omega_function(a1, [o, (F(3, 2),)]), 1)
    result = index_exponent(a1, f, g)
    assert result.exponent == 2
    assert result.per_root_contributions == {(1,): 0, (-1,): 2}


def test_index_exponent_a2(data):
    a2 = data("A2")
    o = (F(0), F(0))
    f = shift(omega_function(a2, [o]), 1)
    g = shift(omega_function(a2, [o, (F(1), F(2))]), 1)
    result = index_exponent(a2, f, g)
    assert result.exponent == 6


def test_index_exponent_errors(data):
    a1 = data("A1")
    o = (F(0),)
    f = shift(point_function(a1, o), 1)
    bad = ConcaveFunction(at_zero=F(1), values={(1,): F(0), (-1,): F(0)})
    with pytest.raises(NonConcaveError, match="^lower function is not concave$"):
        index_exponent(a1, bad, f)
    with pytest.raises(NonConcaveError, match="^upper function is not concave$"):
        index_exponent(a1, f, bad)
    with pytest.raises(LevelMismatchError):
        index_exponent(a1, f, shift(f, 1))
    zero_level = point_function(a1, o)
    with pytest.raises(LevelMismatchError):
        index_exponent(a1, zero_level, zero_level)
    g = shift(omega_function(a1, [o, (F(2),)]), 1)
    with pytest.raises(DominationError):
        index_exponent(a1, g, f)


def test_quotient_exponents(data):
    a2 = data("A2")
    assert quotient_exponents(a2, (F(0), F(0))) == 0
    assert quotient_exponents(a2, (F(2), F(0))) == 2
    assert quotient_exponents(a2, (F(2), F(0)), r_prime=1) == 0
    assert quotient_exponents(a2, (F(1), F(1))) == 1
    with pytest.raises(NotInChamberError):
        quotient_exponents(a2, (F(-1), F(0)))
    with pytest.raises(ValidationError):
        quotient_exponents(a2, (F(1), F(0)), r_prime=0)


def test_filtration_contains_frozen(data):
    a1 = data("A1")
    o = (F(0),)
    assert filtration_contains(a1, o, 2, (F(1),), 1)
    assert not filtration_contains(a1, o, 2, (F(3),), 1)
    assert filtration_contains(a1, o, 4, (F(3),), 1)


def test_filtration_contains_validation(data):
    a1 = data("A1")
    o = (F(0),)
    with pytest.raises(ValidationError):
        filtration_contains(a1, o, 1, o, 1)
    with pytest.raises(ValidationError):
        filtration_contains(a1, o, 0, o, -1)
    with pytest.raises(ValidationError):
        filtration_contains(a1, o, F(3, 2), o, 1)


def test_filtration_bridge_small(data):
    # wall distance <= r1 - r2 forces containment
    b2 = data("B2")
    o = (F(0), F(0))
    y = (F(1), F(0))
    d = wall_distance(b2, o, y).d
    assert filtration_contains(b2, o, d + 2, y, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.data())
def test_concavity_closure(name, draw):
    datum = build_root_datum(parse_type(name))
    scale = datum.scale
    coords = st.tuples(
        *[st.integers(min_value=-3 * scale, max_value=3 * scale)] * datum.rank
    )
    x = tuple(Fraction(v, scale) for v in draw.draw(coords))
    y = tuple(Fraction(v, scale) for v in draw.draw(coords))
    om = omega_function(datum, [x, y])
    assert is_concave(datum, om)
    assert is_concave(datum, optimize(datum, om))
    assert is_concave(datum, shift(om, 3))
    f = pointwise_max(point_function(datum, x), point_function(datum, y))
    assert f.values == om.values


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A1", "A2", "B2"]), st.data())
def test_index_exponent_nonnegative(name, draw):
    datum = build_root_datum(parse_type(name))
    scale = datum.scale
    coords = st.tuples(
        *[st.integers(min_value=-2 * scale, max_value=2 * scale)] * datum.rank
    )
    x = tuple(Fraction(v, scale) for v in draw.draw(coords))
    o = tuple(Fraction(0) for _ in range(datum.rank))
    f = shift(omega_function(datum, [o]), 1)
    g = shift(omega_function(datum, [o, x]), 1)
    result = index_exponent(datum, f, g)
    assert result.exponent >= 0
    assert all(v >= 0 for v in result.per_root_contributions.values())


def _reference_is_concave(datum, f):
    """The O(|roots|^2) Fraction concavity check the root-addition table
    replaced, kept verbatim (its totality check inlined) as an oracle."""
    if set(f.values) != set(datum.all_roots()):
        raise ValidationError("function is not total on the roots of this system")
    if f.at_zero < 0:
        return False
    root_set = set(datum.all_roots())
    values = f.values
    for alpha, fa in values.items():
        minus = tuple(-c for c in alpha)
        if fa + values[minus] < f.at_zero:
            return False
        for beta, fb in values.items():
            total = tuple(a + b for a, b in zip(alpha, beta))
            if total in root_set and fa + fb < values[total]:
                return False
    return True


ORACLE_TYPES = ["A2", "B2", "G2", "B3", "C3", "D4", "F4", "E6", "E7"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_is_concave_matches_reference(data, name):
    """Omega functions of random vertices, shifted, then perturbed at one
    root: both answers must occur and agree with the slow check."""
    datum = data(name)
    rng = random.Random(name)
    pool = enumerate_scaled_alcove_vertices(datum, 2).points
    outcomes = set()
    for _ in range(12):
        points = [
            tuple(-t for t in p) if rng.random() < 0.5 else p
            for p in rng.sample(pool, rng.randint(1, 3))
        ]
        f = shift(omega_function(datum, points), F(rng.randint(0, 4), rng.choice([1, 2])))
        assert is_concave(datum, f) and _reference_is_concave(datum, f)
        values = dict(f.values)
        root = rng.choice(datum.all_roots())
        values[root] += F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        g = ConcaveFunction(at_zero=f.at_zero, values=values)
        expected = _reference_is_concave(datum, g)
        assert is_concave(datum, g) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def _random_point(rng, rank):
    return tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6, 12])) for _ in range(rank))


@pytest.mark.parametrize("name", ORACLE_TYPES + ["E8"])
def test_point_functions_match_eval_root(data, name):
    datum = data(name)
    rng = random.Random(name)
    for _ in range(5):
        points = [_random_point(rng, datum.rank) for _ in range(rng.randint(1, 3))]
        f = point_function(datum, points[0])
        assert f.at_zero == 0
        assert f.values == {r: -eval_root(datum, r, points[0]) for r in datum.all_roots()}
        om = omega_function(datum, points)
        assert om.at_zero == 0
        assert om.values == {
            r: max(-eval_root(datum, r, p) for p in points) for r in datum.all_roots()
        }
        assert list(om.values) == list(datum.all_roots())


@pytest.mark.parametrize("name", ORACLE_TYPES + ["E8"])
def test_filtration_contains_matches_eval_root(data, name):
    datum = data(name)
    rng = random.Random(name)
    outcomes = set()
    for _ in range(20):
        x, y = _random_point(rng, datum.rank), _random_point(rng, datum.rank)
        widest = max(
            abs(eval_root(datum, root, x) - eval_root(datum, root, y))
            for root in datum.positive_roots
        )
        # gaps on both sides of the widest root gap
        r2 = rng.randint(0, 3)
        r1 = r2 + max(1, ceil(widest) + rng.choice([-1, 0, 1]))
        expected = widest <= r1 - r2
        assert filtration_contains(datum, x, r1, y, r2) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "name,size",
    [("A2", 6), ("B2", 12), ("G2", 30), ("B3", 60), ("C3", 60), ("D4", 96),
     ("F4", 408), ("E6", 720), ("E7", 2016), ("E8", 6720)],
)
def test_addition_table_size(data, name, size):
    datum = data(name)
    table = _addition_table(datum)
    assert len(table) == size == len(set(table))
    roots = datum.all_roots()
    for i, j, k in table:
        assert i < j
        assert tuple(a + b for a, b in zip(roots[i], roots[j])) == roots[k]
    assert _addition_table(datum) is table


def test_function_checked_when_built():
    # unchecked, shift would turn at_zero 0.5 into the float 1.5 and
    # the value True into Fraction(2)
    with pytest.raises(ValidationError, match="^not an exact rational number: 0.5 is a float$"):
        ConcaveFunction(at_zero=0.5, values={(1,): F(1, 2), (-1,): F(1, 2)})
    with pytest.raises(ValidationError, match="^not an exact rational number: True is a bool$"):
        ConcaveFunction(at_zero=F(1, 2), values={(1,): F(1, 2), (-1,): True})
    f = ConcaveFunction(at_zero=1, values={(1,): "1/2", (-1,): 0})
    assert type(f.at_zero) is Fraction and f.at_zero == 1
    assert all(type(v) is Fraction for v in f.values.values())
    assert shift(f, 1) == ConcaveFunction(at_zero=F(2), values={(1,): F(3, 2), (-1,): F(1)})
    assert f.values[(1,)] == F(1, 2)


def test_built_values_stay_checked(data):
    # the build check holds for the function's life: its values cannot
    # be written, and a change to the mapping it was built from does not
    # reach it, so no float gets to is_concave or index_exponent
    a1 = data("A1")
    given = {(1,): F(1), (-1,): F(1)}
    f = ConcaveFunction(at_zero=F(1), values=given)
    with pytest.raises(TypeError):
        f.values[(1,)] = 0.5
    given[(1,)] = 0.5
    assert f.values == {(1,): F(1), (-1,): F(1)}
    assert is_concave(a1, f)
    assert index_exponent(a1, f, f).exponent == 0


def test_float_in_built_function_refused(data):
    a1 = data("A1")
    with pytest.raises(ValidationError):
        is_concave(a1, ConcaveFunction(at_zero=F(1), values={(1,): 0.5, (-1,): F(1)}))
    g = shift(point_function(a1, (F(0),)), 1)
    with pytest.raises(ValidationError):
        index_exponent(a1, g, ConcaveFunction(at_zero=1.0, values=dict(g.values)))


def _optimized(v):
    return v + 1 if v.denominator == 1 else F(ceil(v))


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_integer_functions_match_fraction_formulas(data, name):
    """Every function this module builds reads back the Fractions of
    the eval_root formulas, in all_roots() order, and prints and
    serializes as the function built from those Fractions."""
    datum = data(name)
    rng = random.Random(f"{name} integer view")
    roots = datum.all_roots()
    for _ in range(4):
        x, y = _random_point(rng, datum.rank), _random_point(rng, datum.rank)
        r = F(rng.randint(-3, 3), rng.choice([1, 2, 3, 5, 7]))
        fx = {a: -eval_root(datum, a, x) for a in roots}
        fy = {a: -eval_root(datum, a, y) for a in roots}
        om = {a: max(fx[a], fy[a]) for a in roots}
        cases = [
            (point_function(datum, x), F(0), fx),
            (omega_function(datum, [x, y]), F(0), om),
            (shift(point_function(datum, x), 2), F(2), {a: v + 2 for a, v in fx.items()}),
            (shift(omega_function(datum, [x, y]), r), r, {a: v + r for a, v in om.items()}),
            (
                optimize(datum, shift(omega_function(datum, [x, y]), r)),
                _optimized(r),
                {a: _optimized(v + r) for a, v in om.items()},
            ),
            (
                pointwise_max(shift(point_function(datum, x), r), point_function(datum, y)),
                max(r, F(0)),
                {a: max(fx[a] + r, fy[a]) for a in roots},
            ),
        ]
        for f, at_zero, values in cases:
            assert type(f.at_zero) is Fraction and f.at_zero == at_zero
            assert dict(f.values) == values
            assert list(f.values) == list(roots)
            assert all(type(v) is Fraction for v in f.values.values())
            built = ConcaveFunction(at_zero=at_zero, values=values)
            assert repr(f) == repr(built)
            assert f == built and f.values == built.values


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_index_exponent_reads_any_root_order(data, name):
    """A lower function given in reversed root order against an upper
    one of this module: its contributions follow its own order, and a
    domination failure names the first root of that order."""
    datum = data(name)
    rng = random.Random(f"{name} reversed")
    roots = datum.all_roots()
    x, y = _random_point(rng, datum.rank), _random_point(rng, datum.rank)
    fx = {a: 1 - eval_root(datum, a, x) for a in reversed(roots)}
    om = {a: max(fx[a], 1 - eval_root(datum, a, y)) for a in roots}
    lower = ConcaveFunction(at_zero=F(1), values=fx)
    upper = shift(omega_function(datum, [x, y]), 1)
    result = index_exponent(datum, lower, upper)
    expected = {a: ceil(om[a]) - ceil(fx[a]) for a in reversed(roots)}
    assert list(result.per_root_contributions.items()) == list(expected.items())
    assert result.exponent == sum(expected.values())
    assert index_exponent(datum, shift(point_function(datum, x), 1), upper) == result
    first = next(a for a in reversed(roots) if fx[a] < om[a])
    with pytest.raises(DominationError, match=rf"^g < f at root {re.escape(str(first))}$"):
        index_exponent(datum, ConcaveFunction(at_zero=F(1), values=dict(reversed(om.items()))), lower)


def test_index_operation_builds_few_fractions(data, monkeypatch):
    """An E7 index operation, the shape bench/workloads.py times, builds
    a few Fractions in all, not a few per root: values stay integers
    until one is read."""
    e7 = data("E7")
    rng = random.Random("E7 work")
    x, y = _random_point(rng, e7.rank), _random_point(rng, e7.rank)

    def operation():
        return index_exponent(
            e7, shift(point_function(e7, x), 1), shift(omega_function(e7, [x, y]), 1)
        )

    expected = operation()
    calls = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    result = operation()
    monkeypatch.undo()
    assert result == expected
    # the values at 0 and the two shifts; E7 has 126 roots
    assert 0 < len(calls) <= 6
