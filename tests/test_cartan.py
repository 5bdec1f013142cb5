"""Root system construction against hand-checked tables."""

from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

import alcove
from alcove import (
    DimensionMismatchError,
    InvalidTypeError,
    NotARootError,
    RootSystemType,
    build_root_datum,
    cartan_matrix,
    eval_root,
    make_function,
    parse_type,
    positive_root_count,
    theorem_table,
    validate_type,
    weyl_degrees,
)
from alcove import cartan
from alcove.apartment import _tester
from alcove.cartan import _inverse, require_positive_root

ALL_SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "G2", "F4"]
EXCEPTIONAL = ["E6", "E7", "E8", "F4", "G2"]


def test_parse_type_roundtrip():
    for name in ALL_SMALL + EXCEPTIONAL:
        assert str(parse_type(name)) == name


@pytest.mark.parametrize("bad", ["", "A", "2", "H3", "A0", "B1", "C1", "D2", "D3", "E5", "E9", "F3", "F5", "G3", "a2", "A-1"])
def test_bad_type_rejected(bad):
    with pytest.raises(InvalidTypeError):
        parse_type(bad)


@pytest.mark.parametrize(
    "family, rank",
    [("A", True), ("A", 2.0), ("A", "3"), ("AB", 2), ("BC", 2), ("", 2), (3, 2)],
)
def test_bad_type_fields_rejected(family, rank):
    # "AB" in "ABCDEFG" is a substring test; True == 1 and 2.0 == 2
    with pytest.raises(InvalidTypeError):
        build_root_datum(RootSystemType(family, rank))


@pytest.mark.parametrize(
    "rstype",
    [RootSystemType("Q", 2), RootSystemType("E", 5), RootSystemType("D", 3), RootSystemType("A", -1), "A2"],
    ids=["Q2", "E5", "D3", "A-1", "text"],
)
@pytest.mark.parametrize("entry", [validate_type, build_root_datum, cartan_matrix, positive_root_count])
def test_type_level_entries_check_their_type(entry, rstype):
    # unchecked, cartan_matrix answers Q2 with G2's matrix and E5 with a
    # 5x5 one, positive_root_count raises KeyError on E5 and gives 0 for
    # A-1, and a label string fails on rstype.family with AttributeError
    with pytest.raises(InvalidTypeError):
        entry(rstype)


def test_d3_refused():
    # D3 is A3 under relabeling; no keyword admits it
    rstype = RootSystemType("D", 3)
    for check in (validate_type, build_root_datum):
        with pytest.raises(InvalidTypeError):
            check(rstype)
        with pytest.raises(TypeError):
            check(rstype, allow_d3_alias=True)


def test_cartan_matrices_frozen():
    assert cartan_matrix(parse_type("A2")) == ((2, -1), (-1, 2))
    assert cartan_matrix(parse_type("B2")) == ((2, -2), (-1, 2))
    assert cartan_matrix(parse_type("C2")) == ((2, -1), (-2, 2))
    assert cartan_matrix(parse_type("G2")) == ((2, -1), (-3, 2))
    assert cartan_matrix(parse_type("B3")) == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )
    assert cartan_matrix(parse_type("C3")) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -2, 2),
    )
    assert cartan_matrix(parse_type("D4")) == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    assert cartan_matrix(parse_type("F4")) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_matrix_shape():
    for name in ALL_SMALL + EXCEPTIONAL:
        cm = cartan_matrix(parse_type(name))
        d = len(cm)
        for i in range(d):
            assert cm[i][i] == 2
            for j in range(d):
                if i != j:
                    assert cm[i][j] <= 0
                    assert (cm[i][j] == 0) == (cm[j][i] == 0)


def test_gram_symmetry():
    # A[i][j] * norm(alpha_j) is twice (alpha_i, alpha_j), hence symmetric
    for name in ALL_SMALL + EXCEPTIONAL:
        datum = build_root_datum(parse_type(name))
        d = datum.rank
        for i in range(d):
            for j in range(d):
                left = datum.simple_norms[j] * datum.cartan[i][j]
                right = datum.simple_norms[i] * datum.cartan[j][i]
                assert left == right


def test_positive_root_closure_counts():
    for name in ALL_SMALL + EXCEPTIONAL + ["A7", "B7", "C7", "D7"]:
        rstype = parse_type(name)
        datum = build_root_datum(rstype)
        assert len(datum.positive_roots) == positive_root_count(rstype)


def test_positive_roots_frozen_small():
    a2 = build_root_datum(parse_type("A2"))
    assert a2.positive_roots == ((0, 1), (1, 0), (1, 1))
    b2 = build_root_datum(parse_type("B2"))
    assert b2.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))
    g2 = build_root_datum(parse_type("G2"))
    assert g2.positive_roots == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))


def test_roots_closed_under_negation():
    for name in ("A2", "B3", "G2", "F4"):
        datum = build_root_datum(parse_type(name))
        roots = set(datum.all_roots())
        assert len(roots) == 2 * len(datum.positive_roots)
        for r in roots:
            assert tuple(-c for c in r) in roots
        assert (0,) * datum.rank not in roots


def test_all_roots_built_once():
    """all_roots() is one tuple per datum, positives then their
    negatives; a datum made without build_root_datum builds it lazily."""
    for name in ("A1", "G2", "D4", "E8"):
        datum = build_root_datum(parse_type(name))
        negatives = tuple(tuple(-c for c in r) for r in datum.positive_roots)
        for d in (datum, replace(datum)):
            roots = d.all_roots()
            assert roots is d.all_roots()
            assert roots == datum.positive_roots + negatives


@pytest.fixture
def inverse_calls(monkeypatch):
    """The matrices handed to cartan._inverse from now on, in call order."""
    calls = []
    real = cartan._inverse
    # every module that bound the function counts
    for module in vars(alcove).values():
        if getattr(module, "_inverse", None) is real:
            monkeypatch.setattr(module, "_inverse", lambda m: calls.append(m) or real(m))
    return calls


def test_cartan_inverted_once_per_datum(inverse_calls):
    """The vertex tester inverts the Cartan matrix once, on first use,
    and keeps the integer rows over |det C|."""
    for name, det in (("E8", 1), ("D4", 4), ("A3", 4)):
        datum = build_root_datum(parse_type(name))
        tester = _tester(datum)
        assert len(inverse_calls) == 1
        inverse_calls.clear()
        assert (tester.inverse_rows, tester.inverse_denom) == _inverse(datum.cartan)
        assert tester.inverse_denom == det


def test_cartan_inverted_lazily(inverse_calls):
    """build_root_datum inverts nothing; the first vertex tester of a
    datum inverts once, and a second read inverts nothing more."""
    rows = theorem_table(8).rows
    inverse_calls.clear()
    for row in rows:
        datum = build_root_datum(row.rstype)
        assert inverse_calls == [], row.rstype
        _tester(datum)
        _tester(datum)
        assert inverse_calls == [datum.cartan], row.rstype
        inverse_calls.clear()


def test_highest_root_dominates():
    for name in ALL_SMALL + EXCEPTIONAL:
        datum = build_root_datum(parse_type(name))
        top = datum.highest_root_coeffs
        assert top in datum.positive_roots
        for root in datum.positive_roots:
            assert all(r <= t for r, t in zip(root, top))


MARKS = {
    "A3": (1, 1, 1),
    "B3": (1, 2, 2),
    "C3": (2, 2, 1),
    "D4": (1, 2, 1, 1),
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}

TWO_RHO = {
    "B3": (5, 8, 9),
    "C3": (6, 10, 6),
    "D4": (6, 10, 6, 6),
    "E6": (16, 22, 30, 42, 30, 16),
    "E7": (34, 49, 66, 96, 75, 52, 27),
    "E8": (92, 136, 182, 270, 220, 168, 114, 58),
    "F4": (16, 30, 42, 22),
    "G2": (10, 6),
}


def test_marks_frozen():
    for name, marks in MARKS.items():
        assert build_root_datum(parse_type(name)).highest_root_coeffs == marks


def test_two_rho_frozen():
    for name, coeffs in TWO_RHO.items():
        assert build_root_datum(parse_type(name)).two_rho_coeffs == coeffs


def test_two_rho_is_positive_root_column_sum():
    # independent recomputation from the generated root list
    for name in ("A4", "B4", "C4", "D5", "F4", "G2"):
        datum = build_root_datum(parse_type(name))
        sums = tuple(
            sum(root[j] for root in datum.positive_roots) for j in range(datum.rank)
        )
        assert datum.two_rho_coeffs == sums


def test_a_family_two_rho_formula():
    # c'_i = i (d + 1 - i) for the A family
    for d in range(1, 8):
        datum = build_root_datum(RootSystemType("A", d))
        expected = tuple(i * (d + 1 - i) for i in range(1, d + 1))
        assert datum.two_rho_coeffs == expected


DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "A3": (2, 3, 4),
    "B2": (2, 4),
    "B3": (2, 4, 6),
    "C3": (2, 4, 6),
    "D4": (2, 4, 4, 6),
    "D5": (2, 4, 5, 6, 8),
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}

WEYL_ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "C3": 48,
    "D4": 192,
    "D5": 1920,
    "G2": 12,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}


def test_weyl_degrees_frozen():
    for name, degrees in DEGREES.items():
        datum = build_root_datum(parse_type(name))
        assert weyl_degrees(datum) == degrees


def test_weyl_degree_identities():
    for name, order in WEYL_ORDERS.items():
        datum = build_root_datum(parse_type(name))
        degrees = weyl_degrees(datum)
        assert prod(degrees) == order
        # exponents d_i - 1 sum to the number of positive roots
        assert sum(e - 1 for e in degrees) == len(datum.positive_roots)
        assert len(degrees) == datum.rank


def test_scale_is_mark_lcm():
    expected = {"A5": 1, "B4": 2, "C4": 2, "D4": 2, "G2": 6, "F4": 12, "E6": 6, "E7": 12, "E8": 60}
    for name, scale in expected.items():
        assert build_root_datum(parse_type(name)).scale == scale


def test_simple_norms_frozen():
    b3 = build_root_datum(parse_type("B3"))
    assert b3.simple_norms == (2, 2, 1)
    c3 = build_root_datum(parse_type("C3"))
    assert c3.simple_norms == (1, 1, 2)
    g2 = build_root_datum(parse_type("G2"))
    assert g2.simple_norms == (Fraction(2, 3), 2)
    f4 = build_root_datum(parse_type("F4"))
    assert f4.simple_norms == (2, 2, 1, 1)
    a3 = build_root_datum(parse_type("A3"))
    assert a3.simple_norms == (2, 2, 2)


def test_alpha0_coroot_row():
    a2 = build_root_datum(parse_type("A2"))
    assert a2.alpha0_coroot_row == (1, 1)
    g2 = build_root_datum(parse_type("G2"))
    assert g2.alpha0_coroot_row == (0, 1)
    # B2 highest root is long and orthogonal to the long simple root
    b2 = build_root_datum(parse_type("B2"))
    assert b2.alpha0_coroot_row == (0, 1)


def test_alpha0_coroot_row_all_types():
    # <alpha_j, theta^vee> = 2 (alpha_j, theta) / (theta, theta) from the
    # Gram matrix (alpha_i, alpha_j) = C[i][j] * |alpha_j|^2 / 2
    for row in theorem_table(8).rows:
        datum = build_root_datum(row.rstype)
        d, c, theta = datum.rank, datum.cartan, datum.highest_root_coeffs
        gram = [[c[i][j] * datum.simple_norms[j] / 2 for j in range(d)] for i in range(d)]
        inner = [sum(gram[j][k] * theta[k] for k in range(d)) for j in range(d)]
        theta_norm2 = sum(t * v for t, v in zip(theta, inner))
        expected = tuple(2 * v / theta_norm2 for v in inner)
        assert datum.alpha0_coroot_row == expected, row.rstype


def test_eval_root():
    a2 = build_root_datum(parse_type("A2"))
    x = (Fraction(1, 2), Fraction(1, 3))
    assert eval_root(a2, (1, 1), x) == Fraction(5, 6)
    assert eval_root(a2, (-1, 0), x) == Fraction(-1, 2)


def test_require_positive_root():
    a2 = build_root_datum(parse_type("A2"))
    assert require_positive_root(a2, (1, 1)) == (1, 1)
    with pytest.raises(NotARootError):
        require_positive_root(a2, (2, 0))
    with pytest.raises(NotARootError):
        require_positive_root(a2, (-1, 0))


def test_root_length_checked():
    # every root argument goes through one check of its length
    a2 = build_root_datum(parse_type("A2"))
    calls = [
        lambda r: require_positive_root(a2, r),
        a2.is_root,
        lambda r: eval_root(a2, r, (0, 0)),
        lambda r: make_function(a2, 0, {**dict.fromkeys(a2.all_roots(), 0), r: 0}),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatchError, match="^expected 2 root coefficients, got 3$"):
            call((1, 0, 0))


def test_cartan_inverse():
    # C . rows = |det C| . I for the integer inverse rows over |det C|
    for row in theorem_table(8).rows:
        datum = build_root_datum(row.rstype)
        rows, D = cartan._integer_inverse(datum)
        d = datum.rank
        for i in range(d):
            for j in range(d):
                entry = sum(datum.cartan[i][k] * rows[k][j] for k in range(d))
                assert entry == (D if i == j else 0)


def test_inverse_denominator_is_abs_det():
    # A3's Cartan matrix has determinant 4, [[2, 1], [3, 1]] has -1
    for m, det in [(cartan_matrix(RootSystemType("A", 3)), 4), (((2, 1), (3, 1)), -1)]:
        rows, D = _inverse(m)
        assert D == abs(det)
        d = len(m)
        for i in range(d):
            for j in range(d):
                assert sum(m[i][k] * rows[k][j] for k in range(d)) == (D if i == j else 0)


@pytest.mark.parametrize(
    "name,fault,message",
    [
        (
            "positive_root_count",
            lambda rstype: 4,
            "closure produced 3 positive roots for A2, expected 4",
        ),
        (
            "_generate_positive_roots",
            lambda matrix: [(1, 1), (1, 0), (0, 1)],
            "highest root fails to dominate some positive root",
        ),
        (
            "_simple_norms",
            lambda matrix: (Fraction(1), Fraction(1)),
            "coroot pairing with the highest root is not integral",
        ),
    ],
    ids=["closure-count", "highest-root", "coroot-row"],
)
def test_build_self_checks_fire(monkeypatch, name, fault, message):
    """build_root_datum's three self-checks: a wrong closure count, a
    last root that fails to dominate, and a non-integral highest coroot
    row each raise AssertionError, the internal-error exit of the CLI."""
    monkeypatch.setattr(cartan, name, fault)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        build_root_datum(parse_type("A2"))


def test_root_index_tells_roots_and_positive_roots():
    """is_root and require_positive_root read one root index: every
    root is a root, a positive root passes, and a negative root and a
    non-root raise the same NotARootError."""
    for row in theorem_table(8).rows:
        datum = build_root_datum(row.rstype)
        top = datum.highest_root_coeffs
        non_roots = [(0,) * datum.rank, top[:-1] + (top[-1] + 1,)]
        negatives = [tuple(-c for c in root) for root in datum.positive_roots]
        for root in datum.positive_roots:
            assert datum.is_root(root)
            assert require_positive_root(datum, root) == root
        for root in negatives + non_roots:
            assert datum.is_root(root) == (root in negatives)
            with pytest.raises(NotARootError) as err:
                require_positive_root(datum, root)
            assert str(err.value) == f"{root} is not a positive root of {datum.rstype}"


def test_roots_indexed_lazily():
    """build_root_datum negates no root: all_roots() and the root index
    are built on first read."""
    for row in theorem_table(8).rows:
        datum = build_root_datum(row.rstype)
        assert "_all_roots" not in datum.__dict__ and "_root_index" not in datum.__dict__
        assert datum.is_root(datum.highest_root_coeffs)
        assert datum.__dict__["_all_roots"] == datum.all_roots()
        assert list(datum.__dict__["_root_index"]) == list(datum.all_roots())
