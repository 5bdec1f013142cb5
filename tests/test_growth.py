"""Ball census polynomials, growth exponents, tables, sandwich bounds."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import ceil, prod

import pytest
from click.testing import CliRunner

from alcove import (
    EnumerationLimitError,
    QPolynomial,
    ValidationError,
    ball_sum,
    cind_sandwich,
    gamma_polynomial,
    growth_exponent,
    iter_scaled_alcove_vertices,
    max_two_rho,
    parabolic_shift,
    quotient_ball_sum,
    quotient_exponents,
    theorem_table,
    weyl_degrees,
)
from alcove.apartment import _VertexTester
from alcove.cartan import _generate_positive_roots, eval_root
from alcove.cli import main
from alcove.growth import _capped_census, _Census


def _oracle_levels(datum, x):
    """ceil(alpha(x)) over the positive roots, in Fraction arithmetic."""
    return [ceil(eval_root(datum, root, x)) for root in datum.positive_roots]


def _capped_sum(levels, cap=None):
    """Sum of max(min(level, cap) - 1, 0) over the levels; no cap when None."""
    total = 0
    for level in levels:
        if cap is not None:
            level = min(level, cap)
        total += max(level - 1, 0)
    return total


def _oracle_exponent(datum, x, cap=None):
    """Quotient exponent at a chamber point, from the definition in
    Fraction arithmetic: sum of max(min(ceil(alpha(x)), cap) - 1, 0)."""
    return _capped_sum(_oracle_levels(datum, x), cap)


def _levels_poly(levels, cap=None):
    """Sum of q^e over the rows of levels, e their capped sum."""
    return QPolynomial(Counter(_capped_sum(row, cap) for row in levels))


def _oracle_poly(datum, points, cap=None):
    return _levels_poly((_oracle_levels(datum, x) for x in points), cap)


def test_gamma_frozen(data):
    assert gamma_polynomial(data("A1")) == QPolynomial({3: 1, 1: -1})
    assert gamma_polynomial(data("A2")) == QPolynomial({8: 1, 6: -1, 5: -1, 3: 1})
    assert gamma_polynomial(data("G2")) == QPolynomial({14: 1, 12: -1, 8: -1, 6: 1})


def test_gamma_degree_and_sign(data):
    for name in ("A3", "B3", "C3", "D4", "F4", "E6"):
        datum = data(name)
        gamma = gamma_polynomial(datum)
        num_pos = len(datum.positive_roots)
        assert gamma.degree == 2 * num_pos + datum.rank
        assert gamma.coefficient(gamma.degree) == 1
        # value at q=1 vanishes since each factor q^d - 1 does
        assert gamma.evaluate(1) == 0
        order = prod(weyl_degrees(datum))
        # q^[pos] prod (q^d - 1) ~ order * (q-1)^rank near q=1
        assert gamma.evaluate(2) > 0


def _oracle_gamma(datum):
    """The QPolynomial product loop gamma_polynomial replaced, kept as an
    oracle: q^(number of positive roots) times q^d - 1 for each degree d."""
    poly = QPolynomial({len(datum.positive_roots): 1})
    for degree in weyl_degrees(datum):
        poly = poly * QPolynomial({degree: 1, 0: -1})
    return poly


@pytest.mark.parametrize("name", [str(row.rstype) for row in theorem_table(8).rows])
def test_gamma_matches_product_oracle(data, name):
    datum = data(name)
    gamma = _oracle_gamma(datum)
    assert gamma_polynomial(datum) == gamma
    for r in (0, 1, 2):
        report = ball_sum(datum, r)
        assert report.upper_poly == gamma * report.lower_poly, r


@pytest.mark.parametrize(
    "name,R,r", [("A2", 0, 5), ("A3", 1, 3), ("G2", 0, 1), ("B2", 0, 2), ("C3", 0, 1)]
)
def test_sandwich_upper_matches_product_oracle(data, name, R, r):
    datum = data(name)
    report = cind_sandwich(datum, R, r)
    census = _capped_census(datum, report.upper_radius, report.upper_level, None)
    assert report.upper_poly == _oracle_gamma(datum) * census


GROWTH = {
    "A1": Fraction(1),
    "A2": Fraction(2),
    "A3": Fraction(4),
    "A4": Fraction(6),
    "A5": Fraction(9),
    "B2": Fraction(3),
    "B3": Fraction(5),
    "B4": Fraction(8),
    "B5": Fraction(25, 2),
    "C2": Fraction(3),
    "C3": Fraction(6),
    "C4": Fraction(10),
    "D4": Fraction(6),
    "D5": Fraction(10),
    "E6": Fraction(16),
    "E7": Fraction(27),
    "E8": Fraction(46),
    "F4": Fraction(11),
    "G2": Fraction(10, 3),
}


def test_growth_exponent_frozen(data):
    for name, value in GROWTH.items():
        assert growth_exponent(data(name)) == value


def test_ball_sum_frozen_a2(data):
    a2 = data("A2")
    r1 = ball_sum(a2, 1)
    assert r1.lower_poly == QPolynomial({0: 3})
    assert r1.per_type_counts == (1, 1, 1)
    assert r1.max_two_rho == 2
    r2 = ball_sum(a2, 2)
    assert r2.lower_poly == QPolynomial({0: 3, 1: 1, 2: 2})
    assert r2.per_type_counts == (2, 2, 2)
    assert r2.vertex_count_chamber == 6
    assert r2.max_two_rho == 4
    assert r2.upper_poly == gamma_polynomial(a2) * r2.lower_poly


def test_ball_sum_r0(data):
    g2 = data("G2")
    report = ball_sum(g2, 0)
    assert report.lower_poly == QPolynomial.one()
    assert report.vertex_count_chamber == 1
    assert report.per_type_counts == (1, 0, 0)
    assert report.max_two_rho == 0


def test_ball_sum_exponent_oracle(data):
    # recompute each exponent from the definition, and through the
    # concave-function route; every cap level 1..r+1 reads the same census.
    # The exceptional types pack 24 to 120 root lanes into each vertex
    cases = (("A2", 3), ("B2", 3), ("G2", 2), ("C3", 2), ("E6", 2), ("E7", 2), ("E8", 2), ("F4", 3))
    for name, r in cases:
        datum = data(name)
        report = ball_sum(datum, r)
        vertices = report.chamber_vertices
        levels = [_oracle_levels(datum, x) for x in vertices]
        assert report.lower_poly == _levels_poly(levels)
        for x, row in zip(vertices, levels):
            assert quotient_exponents(datum, x) == _capped_sum(row)
        for level in range(1, r + 2):
            assert report.quotient_poly(level) == _levels_poly(levels, level)


def test_census_lane_edges(data):
    # A2 has scale 1, so r * scale runs through 2^k - 1, 2^k and 2^k + 1,
    # where the lane width bit_length(r * scale) + 1 steps up; r = 0 has no
    # positive exponent.  No level exceeds r, so a cap above r caps nothing
    a2 = data("A2")
    assert a2.scale == 1
    for r in range(9):
        report = ball_sum(a2, r)
        levels = [_oracle_levels(a2, x) for x in report.chamber_vertices]
        assert report.lower_poly == _levels_poly(levels)
        for level in range(1, r + 3):
            assert report.quotient_poly(level) == _levels_poly(levels, level)
        for level in (r + 1, r + 2, 2 * r + 7):
            assert report.quotient_poly(level) == report.lower_poly
    assert ball_sum(a2, 0).lower_poly == QPolynomial.one()


def test_census_reads_no_root_values(data, monkeypatch):
    # every census exponent comes off the packed lanes; the per-root
    # reading belongs to quotient_exponents alone
    def refuse(self, a):
        raise AssertionError("the census read root values")

    monkeypatch.setattr(_VertexTester, "root_values", refuse)
    for name, r in (("E8", 3), ("F4", 3), ("G2", 4), ("A2", 5)):
        datum = data(name)
        ball_sum(datum, r).quotient_poly(2)
        quotient_ball_sum(datum, r, 3)
    cind_sandwich(data("G2"), 0, 1)
    cind_sandwich(data("A2"), 1, 5)
    with pytest.raises(AssertionError):
        quotient_exponents(data("A2"), (1, 1))


def test_quotient_ball_sum(data):
    a2 = data("A2")
    assert quotient_ball_sum(a2, 2, 2) == QPolynomial({0: 3, 1: 1, 2: 2})
    assert quotient_ball_sum(a2, 2, 1) == QPolynomial({0: 6})
    g2 = data("G2")
    assert quotient_ball_sum(g2, 1, 1) == QPolynomial({0: 3})
    with pytest.raises(ValidationError):
        quotient_ball_sum(a2, 2, 0)


def test_quotient_cap_oracle(data):
    for name, r, rp in (("A2", 3, 2), ("B2", 2, 2), ("G2", 2, 3)):
        datum = data(name)
        report = ball_sum(datum, r)
        expected = _oracle_poly(datum, report.chamber_vertices, rp)
        assert quotient_ball_sum(datum, r, rp) == expected
        for x in report.chamber_vertices:
            assert quotient_exponents(datum, x, r_prime=rp) == _oracle_exponent(datum, x, rp)
    # both sandwich bounds: the uncapped census at the lower radius, and
    # gamma times the level-(r+1) census at the upper radius
    for name in ("A2", "B2", "G2", "C3"):
        datum = data(name)
        for R, r in ((0, 3), (1, 4), (0, 5)):
            report = cind_sandwich(datum, R, r)
            lower = iter_scaled_alcove_vertices(datum, report.lower_radius)
            assert report.lower_poly == _oracle_poly(datum, lower)
            upper = iter_scaled_alcove_vertices(datum, report.upper_radius)
            census = _oracle_poly(datum, upper, r + 1)
            assert report.upper_poly == gamma_polynomial(datum) * census


def test_max_two_rho_identity(data):
    for name in ("A2", "B2", "C3", "G2"):
        datum = data(name)
        exponent = growth_exponent(datum)
        for r in (1, 2, 3):
            assert max_two_rho(datum, r) == r * exponent
    with pytest.raises(ValidationError):
        max_two_rho(data("A2"), -1)


CLOSED_FORM_COUNTS = {
    "A3": {3: 20, 5: 56},
    "A7": {4: 330, 6: 1716},
    "B3": {2: 10, 4: 37},
    "C4": {3: 35},
    "D5": {3: 68},
    "G2": {1: 3, 2: 6, 5: 21, 9: 55},
    "F4": {1: 5, 3: 38, 5: 146},
    "E6": {2: 32, 4: 323, 6: 1758},
    "E7": {3: 171, 5: 1529},
    "E8": {3: 243},
}


@pytest.mark.parametrize("name", list(CLOSED_FORM_COUNTS))
def test_census_closed_form(data, residue_orbits, closed_form_count, name):
    datum = data(name)
    orbits = residue_orbits(datum)
    classes = set().union(*orbits)
    # G2, F4 and E8 have coweights equal to coroots, so each corner's classes are its type's
    by_type = name in ("G2", "F4", "E8")
    assert not by_type or sum(map(len, orbits)) == len(classes)
    for r, expected in CLOSED_FORM_COUNTS[name].items():
        report = ball_sum(datum, r)
        assert report.vertex_count_chamber == closed_form_count(datum, r, classes) == expected
        if by_type:
            assert report.per_type_counts == tuple(
                closed_form_count(datum, r, orbit) for orbit in orbits
            )


@pytest.mark.parametrize("name, top", [("E6", 6), ("E7", 5), ("E8", 4)])
def test_exceptional_growth_window(data, name, top):
    # the paper's ball-growth window on the exceptional types:
    # r gamma - |Phi+| <= deg <= r gamma, and max 2rho over rC is r gamma
    datum = data(name)
    exponent = growth_exponent(datum)
    num_pos = len(datum.positive_roots)
    for r in range(1, top + 1):
        report = ball_sum(datum, r)
        assert r * exponent - num_pos <= report.lower_poly.degree <= r * exponent
        assert report.max_two_rho == r * exponent
        assert sum(report.per_type_counts) == report.vertex_count_chamber


def _closure_count(cartan):
    return len(_generate_positive_roots(cartan))


def _submatrix(cartan, subset):
    return tuple(tuple(cartan[i][j] for j in subset) for i in subset)


def test_parabolic_shift_frozen(data):
    a2 = data("A2")
    assert parabolic_shift(a2, []) == 3
    assert parabolic_shift(a2, [1]) == 2
    assert parabolic_shift(a2, [1, 2]) == 0
    b2 = data("B2")
    assert parabolic_shift(b2, [2]) == 3
    with pytest.raises(ValidationError):
        parabolic_shift(a2, [0])
    with pytest.raises(ValidationError):
        parabolic_shift(a2, [3])


def test_parabolic_shift_closure_oracle(data):
    # the roots supported inside the Levi form the subsystem generated
    # by the chosen simples, so the shift is the difference of closures
    for name in ("A3", "B3", "C3", "G2"):
        datum = data(name)
        d = datum.rank
        total = len(datum.positive_roots)
        for size in range(d + 1):
            for subset in combinations(range(d), size):
                inside = 0 if not subset else _closure_count(
                    _submatrix(datum.cartan, subset)
                )
                levi = [j + 1 for j in subset]
                assert parabolic_shift(datum, levi) == total - inside


def test_theorem_table_shape():
    table = theorem_table(8)
    names = [str(row.rstype) for row in table.rows]
    assert len(names) == 8 + 7 + 7 + 5 + 3 + 1 + 1
    assert len(table) == len(table.rows)
    assert names[0] == "A1"
    assert names[-1] == "G2"
    assert "D4" in names and "D3" not in names and "B1" not in names
    by_name = {str(row.rstype): row for row in table.rows}
    g2 = by_name["G2"]
    assert g2.growth_exponent == Fraction(10, 3)
    assert g2.cdim_lower == 4
    assert g2.cdim_upper == 6
    e8 = by_name["E8"]
    assert e8.cdim_lower == 46
    assert e8.cdim_upper == 120
    with pytest.raises(ValidationError):
        theorem_table(1)


def test_sandwich_a2_frozen(data):
    a2 = data("A2")
    report = cind_sandwich(a2, 0, 5)
    assert report.lower_radius == 3
    assert report.lower_divisor == 3
    assert not report.lower_empty
    assert report.upper_radius == 14
    assert report.upper_level == 6
    assert report.upper_depth_zero_only
    assert report.lower_poly == ball_sum(a2, 3).lower_poly


def test_sandwich_empty_lower(data):
    a2 = data("A2")
    report = cind_sandwich(a2, 2, 3)
    assert report.lower_radius == -1
    assert report.lower_empty
    assert report.lower_poly is None


def test_sandwich_ordering(data):
    for name in ("A2", "B2", "G2"):
        datum = data(name)
        for R, r in ((0, 4), (1, 5)):
            report = cind_sandwich(datum, R, r)
            for q0 in (2, 3, 5):
                low = Fraction(report.lower_poly.evaluate(q0), report.lower_divisor)
                assert low <= report.upper_poly.evaluate(q0)


def test_sandwich_validation(data):
    a2 = data("A2")
    with pytest.raises(ValidationError):
        cind_sandwich(a2, -1, 3)
    with pytest.raises(ValidationError):
        cind_sandwich(a2, 0, 0)


def test_ball_budget_error(data):
    with pytest.raises(EnumerationLimitError):
        ball_sum(data("G2"), 3, budget=2)


@pytest.fixture
def walks(monkeypatch):
    """The radii of every census walk growth makes, through its one
    binding of the public walker."""
    radii = []

    def counted(datum, r, **kwargs):
        radii.append(r)
        return iter_scaled_alcove_vertices(datum, r, **kwargs)

    monkeypatch.setattr("alcove.growth.iter_scaled_alcove_vertices", counted)
    return radii


# each run and the one radius it walks; the sandwich walks only its lower
# polytope, and counts its upper one by residue classes
ONE_WALK = {
    "ball_sum": (lambda a2: ball_sum(a2, 3), 3),
    "quotient_ball_sum": (lambda a2: quotient_ball_sum(a2, 3, 2), 3),
    "max_two_rho": (lambda a2: max_two_rho(a2, 3), 3),
    "cind_sandwich": (lambda a2: cind_sandwich(a2, 0, 5), 3),
    "cli ball --level": (
        lambda a2: CliRunner().invoke(
            main, "ball --type A2 --radius 3 --level 2".split(), catch_exceptions=False
        ),
        3,
    ),
}


@pytest.mark.parametrize("name", list(ONE_WALK))
def test_one_census_walk(data, walks, name):
    run, radius = ONE_WALK[name]
    run(data("A2"))
    assert walks == [radius]


# the upper count's (residue group, clip) leaves, which outnumber the lower
# walk's grid leaves (A2 0 5 walks 10; the other three walk at most 1)
@pytest.mark.parametrize(
    "name,R,r,least", [("A2", 0, 5, 49), ("A3", 1, 3, 125), ("C3", 0, 1, 75), ("G2", 0, 1, 37)]
)
def test_sandwich_work_count(data, assert_least_budget, name, R, r, least):
    datum = data(name)
    assert_least_budget(lambda n: cind_sandwich(datum, R, r, budget=n), least)


def test_sandwich_budgets_each_census(data, assert_least_budget):
    # the budget bounds the lower walk and the upper count each on its own
    a2 = data("A2")
    assert_least_budget(lambda n: _Census(a2, 3, n), 10)
    assert_least_budget(lambda n: _capped_census(a2, 14, 6, n), 49)


# (R, caps) per type: caps 1 (a plain count), below R, and above R, where
# nothing saturates; each radius's walk takes under a second on every type
CAPPED_CASES = {4: (1, 2, 5), 6: (3, 7)}


@pytest.mark.parametrize("name", [str(row.rstype) for row in theorem_table(8).rows])
def test_capped_census_matches_walk(data, name):
    # the residue-class count against the walked census, on every type of
    # rank <= 8, among them E6 (6, 3) and E7 (4, 2)
    datum = data(name)
    for R, caps in CAPPED_CASES.items():
        census = _Census(datum, R, None)
        for cap in caps:
            assert _capped_census(datum, R, cap, None) == census.exponent_poly(cap), (R, cap)


def test_e6_sandwich_ordering(data, residue_orbits, closed_form_count):
    # criterion 9's checks on E6, whose upper census is out of the walk's
    # reach: 17,133,117 chamber vertices at radius 35, the closed form's count
    e6 = data("E6")
    report = cind_sandwich(e6, 0, 2)
    assert (report.lower_radius, report.upper_radius, report.upper_level) == (0, 35, 3)
    assert report.lower_poly == QPolynomial.one()
    for q0 in (2, 3, 5):
        low = Fraction(report.lower_poly.evaluate(q0), report.lower_divisor)
        assert low <= report.upper_poly.evaluate(q0)
    classes = set().union(*residue_orbits(e6))
    count = closed_form_count(e6, 35, classes)
    assert _capped_census(e6, 35, 3, None).evaluate(1) == count == 17_133_117
