"""Ring axioms and formatting for the sparse q-polynomials."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from alcove import QPolynomial, ValidationError
from alcove.qpoly import NEG_INFINITY

polys = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-(10**9), max_value=10**9),
    max_size=6,
).map(QPolynomial)

small_ints = st.integers(min_value=-50, max_value=50)


def test_zero_and_one():
    z = QPolynomial.zero()
    assert not z
    assert z.degree == NEG_INFINITY
    assert z.leading_coefficient == 0
    assert z == 0
    one = QPolynomial.one()
    assert one.degree == 0
    assert one == 1
    assert one.evaluate(7) == 1


def test_monomial():
    m = QPolynomial.monomial(3, 2)
    assert m.degree == 3
    assert m.leading_coefficient == 2
    assert m.coefficient(3) == 2
    assert m.coefficient(0) == 0
    assert m.evaluate(2) == 16


def test_constructor_merges_and_drops_zeros():
    p = QPolynomial({0: 1, 2: 0})
    assert p.term_list() == [(0, 1)]
    assert QPolynomial({5: 3}) - QPolynomial({5: 3}) == 0


def test_negative_exponent_rejected():
    with pytest.raises(ValidationError):
        QPolynomial({-1: 2})


def test_non_integer_terms_rejected():
    with pytest.raises(ValidationError):
        QPolynomial({0: Fraction(1, 2)})
    with pytest.raises(ValidationError):
        QPolynomial({Fraction(1, 2): 1})
    with pytest.raises(ValidationError):
        QPolynomial({0: True})
    with pytest.raises(ValidationError):
        QPolynomial.monomial(2) ** (-1)


def test_render_frozen():
    assert QPolynomial.zero().render() == "0"
    assert QPolynomial.one().render() == "1"
    assert QPolynomial.monomial(1).render() == "q"
    assert QPolynomial({2: 2, 1: 1, 0: 3}).render() == "2q^2 + q + 3"
    assert QPolynomial({3: 1, 0: -1}).render() == "q^3 - 1"
    assert QPolynomial({1: -1, 0: 1}).render() == "-q + 1"
    assert QPolynomial({4: -6}).render() == "-6q^4"


def test_repr_mentions_render():
    assert repr(QPolynomial({1: 2})) == "QPolynomial(2q)"


def test_evaluate_exact():
    p = QPolynomial({0: 1, 40: 1})
    assert p.evaluate(10) == 10**40 + 1
    assert p.evaluate(Fraction(1, 2)) == 1 + Fraction(1, 2**40)
    with pytest.raises(ValidationError):
        p.evaluate(1.5)


def test_evaluate_reads_exact_spellings():
    # q is read as every exact rational argument is; an integral q keeps
    # integer arithmetic and an int value
    p = QPolynomial({0: 1, 3: 2})
    for q in (3, Fraction(3), "3", Decimal(3)):
        value = p.evaluate(q)
        assert value == 55 and type(value) is int
    for q in (Fraction(1, 2), "1/2", Decimal("0.5")):
        assert p.evaluate(q) == Fraction(5, 4)
    for q in (True, 2.0, "q", None):
        with pytest.raises(ValidationError):
            p.evaluate(q)


def test_serialization_roundtrip_big():
    p = QPolynomial({0: 10**30, 7: -(10**25)})
    data = p.to_serializable()
    assert data == [[0, str(10**30)], [7, str(-(10**25))]]
    assert QPolynomial.from_serializable(data) == p


def test_from_serializable_malformed():
    with pytest.raises(ValidationError):
        QPolynomial.from_serializable([["x", "1"]])
    with pytest.raises(ValidationError):
        QPolynomial.from_serializable([[1]])
    # strings go through int(); anything else must already be an int
    for bad in ([[1.5, "2"]], [[True, 2.9]], [[1, 2.0]], [[1, True]], [[2.0, 1]]):
        with pytest.raises(ValidationError, match="^malformed polynomial data: "):
            QPolynomial.from_serializable(bad)
    assert QPolynomial.from_serializable([["2", "3"], [0, -1]]) == QPolynomial({2: 3, 0: -1})
    # two spellings of one exponent are refused, not collapsed
    message = "^malformed polynomial data: repeated exponent 1$"
    for bad in ([[1, "2"], ["1", "3"]], [[1, "2"], [0, "1"], [1, "2"]]):
        with pytest.raises(ValidationError, match=message):
            QPolynomial.from_serializable(bad)


@pytest.mark.parametrize(
    "bad", [5, "10", [1, 2], 0.0, False], ids=["int", "str", "flat list", "float", "bool"]
)
def test_constructor_refuses_non_mapping(bad):
    with pytest.raises(ValidationError):
        QPolynomial(bad)


def test_constructor_refuses_repeated_exponent():
    # a list of pairs may name an exponent twice; it is refused, not collapsed
    assert QPolynomial([(1, 2), (0, 3)]) == QPolynomial({1: 2, 0: 3})
    for bad in ([(1, 2), (1, 3)], [[1, 2], [0, 1], [1, 0]], [(1, 0), (1, 2)]):
        with pytest.raises(ValidationError, match="^repeated exponent 1$"):
            QPolynomial(bad)


def test_int_mixing():
    p = QPolynomial.monomial(2)
    assert p + 1 == QPolynomial({2: 1, 0: 1})
    assert 1 + p == p + 1
    assert 3 * p == QPolynomial({2: 3})
    assert p * 0 == 0
    assert 2 - p == QPolynomial({0: 2, 2: -1})
    assert p - 2 == QPolynomial({2: 1, 0: -2})


def test_pow():
    p = QPolynomial({1: 1, 0: 1})
    assert p**0 == 1
    assert p**2 == QPolynomial({2: 1, 1: 2, 0: 1})
    assert p**3 == QPolynomial({3: 1, 2: 3, 1: 3, 0: 1})


def test_hash_consistency():
    a = QPolynomial({1: 2, 0: 1})
    b = QPolynomial({0: 1, 1: 2})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # a constant equals its int, so it hashes as that int
    for constant in (0, 3, -7, 10**30):
        assert QPolynomial({0: constant}) == constant
        assert hash(QPolynomial({0: constant})) == hash(constant)
        assert len({QPolynomial({0: constant}), constant}) == 1
    assert hash(QPolynomial()) == hash(0)


@pytest.mark.parametrize(
    "other", [Fraction(1, 2), 1.5, 1j, None], ids=["Fraction", "float", "complex", "None"]
)
def test_non_integer_operands_refused(other):
    """Each operator hands a non-integer operand back to Python, whose
    TypeError names that operator; equality falls back to identity."""
    p = QPolynomial.monomial(2)
    assert p != other
    assert not (p == other)
    for symbol, call in [
        ("+", lambda: p + other),
        ("+", lambda: other + p),
        ("-", lambda: p - other),
        ("-", lambda: other - p),
        ("*", lambda: p * other),
        ("*", lambda: other * p),
    ]:
        with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \{symbol}"):
            call()


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys, small_ints)
def test_evaluate_is_ring_hom(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (-p).evaluate(x) == -p.evaluate(x)
    assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)


@given(polys)
def test_roundtrip(p):
    assert QPolynomial.from_serializable(p.to_serializable()) == p


@given(polys, polys)
def test_degree_of_product(p, q):
    if p and q:
        assert (p * q).degree <= p.degree + q.degree
        # integer coefficients: leading terms cannot cancel
        assert (p * q).degree == p.degree + q.degree


@given(polys)
def test_additive_inverse(p):
    assert p + (-p) == 0
    assert p - p == 0
