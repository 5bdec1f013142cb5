"""End-to-end acceptance checks, one numbered test per requirement.

Each test prints a single PASS line when it holds; a failure shows up
as the usual pytest report for that criterion.  Run with

    pytest tests/test_acceptance.py -v
"""

import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import mul
from pathlib import Path

import pytest

import alcove
from alcove import (
    alcove_vertex,
    apartment_ball,
    ball_sum,
    build_root_datum,
    cind_sandwich,
    enumerate_scaled_alcove_vertices,
    eval_root,
    filtration_contains,
    fold_pair,
    growth_exponent,
    is_concave,
    max_two_rho,
    omega_function,
    optimize,
    origin,
    parabolic_shift,
    parse_type,
    point_function,
    pointwise_max,
    quotient_ball_sum,
    quotient_exponents,
    shift,
    simplicial_distance,
    simplicial_distances,
    theorem_table,
    wall_distance,
)


@pytest.fixture
def announce(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    return emit


def _ceil(value: Fraction) -> int:
    return -(-value.numerator // value.denominator)


EXPECTED_EXCEPTIONAL = {
    "E6": Fraction(16),
    "E7": Fraction(27),
    "E8": Fraction(46),
    "F4": Fraction(11),
    "G2": Fraction(10, 3),
}


def _expected_exponent(family: str, d: int) -> Fraction:
    if family == "A":
        n = d // 2
        return Fraction(n * (n + 1)) if d % 2 == 0 else Fraction((n + 1) ** 2)
    if family == "B":
        if d == 2:
            return Fraction(3)
        if d == 3:
            return Fraction(5)
        return Fraction(d * d, 2)
    if family == "C":
        return Fraction(d * (d + 1), 2)
    if family == "D":
        return Fraction(d * (d - 1), 2)
    raise AssertionError(family)


def test_criterion_01_growth_table(announce):
    start = time.monotonic()
    table = theorem_table(12)
    by_name = {str(row.rstype): row for row in table.rows}
    assert len(by_name) == 12 + 11 + 11 + 9 + 5
    for row in table.rows:
        family = row.rstype.family
        if family in "ABCD":
            expected = _expected_exponent(family, row.rank)
        else:
            expected = EXPECTED_EXCEPTIONAL[str(row.rstype)]
        assert row.growth_exponent == expected, str(row.rstype)
        assert row.cdim_lower == _ceil(expected), str(row.rstype)
    assert by_name["G2"].cdim_lower == 4
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(
        f"PASS criterion 1: growth-exponent table ranks 2-12 exact, "
        f"ceiling lower bounds (G2 -> 4), {elapsed:.2f}s"
    )


MARKS_EXC = {
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}

TWO_RHO_EXC = {
    "E6": (16, 22, 30, 42, 30, 16),
    "E7": (34, 49, 66, 96, 75, 52, 27),
    "E8": (92, 136, 182, 270, 220, 168, 114, 58),
    "F4": (16, 30, 42, 22),
    "G2": (10, 6),
}


def test_criterion_02_coefficient_vectors(announce):
    for name in ("E6", "E7", "E8", "F4", "G2"):
        datum = build_root_datum(parse_type(name))
        assert datum.highest_root_coeffs == MARKS_EXC[name]
        assert datum.two_rho_coeffs == TWO_RHO_EXC[name]
    announce(
        "PASS criterion 2: exceptional highest-root and 2-rho coefficient "
        "vectors exact"
    )


def test_criterion_03_degree_identity(announce):
    start = time.monotonic()
    small = (
        "A1", "A2", "A3", "A4",
        "B2", "B3", "B4",
        "C2", "C3", "C4",
        "D4", "F4", "G2",
    )
    checked = 0
    for name in small:
        datum = build_root_datum(parse_type(name))
        exponent = growth_exponent(datum)
        for r in range(1, 6):
            assert max_two_rho(datum, r) == r * exponent, (name, r)
            checked += 1
    for name in ("E6", "E7", "E8", "F4"):
        datum = build_root_datum(parse_type(name))
        exponent = growth_exponent(datum)
        for r in (1, 2):
            assert max_two_rho(datum, r) == r * exponent, (name, r)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    announce(
        f"PASS criterion 3: max 2-rho equals r times growth exponent on "
        f"{checked} (type, r) cases, {elapsed:.1f}s"
    )


def test_criterion_04_polytope_oracle(announce, oracle_is_vertex):
    cases = 0
    for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"):
        datum = build_root_datum(parse_type(name))
        scale = datum.scale
        o = origin(datum)
        for r in range(5):
            expected = set()
            for nums in product(range(r * scale + 1), repeat=datum.rank):
                x = tuple(Fraction(n, scale) for n in nums)
                if not oracle_is_vertex(datum, x):
                    continue
                if wall_distance(datum, o, x).d <= r:
                    expected.add(x)
            got = set(enumerate_scaled_alcove_vertices(datum, r).points)
            assert got == expected, (name, r)
            cases += 1
    announce(
        f"PASS criterion 4: dominant wall-ball oracle matches scaled-alcove "
        f"enumeration on {cases} (type, r) cases"
    )


def _fold_map(datum, x):
    """The affine map of the fold chain of x, checked against fold_pair.

    Folding x into the closed alcove applies one fixed chain of wall
    reflections; fold_pair replays that chain on any companion point.
    The chain composes to an affine map of the coordinates, recovered
    exactly from the images of the origin and the unit points.  Its
    linear part and the origin's image are integral, so the map sends a
    point of the (1/scale)-grid to one, and works on its numerators.
    """
    d, scale = datum.rank, datum.scale
    zero = tuple(Fraction(0) for _ in range(d))
    folded, base = fold_pair(datum, x, zero)
    cols = []
    for j in range(d):
        unit = tuple(Fraction(int(k == j)) for k in range(d))
        again, image = fold_pair(datum, x, unit)
        assert again == folded
        cols.append(tuple(a - b for a, b in zip(image, base)))
    assert all(t.denominator == 1 for t in base + sum(cols, ()))
    shift = [int(t) * scale for t in base]
    rows = [[int(col[k]) for col in cols] for k in range(d)]

    def apply(y):
        a = [t.numerator * (scale // t.denominator) for t in y]
        return tuple(Fraction(s + sum(map(mul, row, a)), scale) for s, row in zip(shift, rows))

    assert apply(x) == folded
    return folded, apply


def test_criterion_05_distance_comparison(announce):
    """Simplicial vs wall distance on every pair of the radius-4 ball.

    Three clauses hold universally and are asserted outright: the
    simplicial distance dominates the wall distance, the two agree on
    the value 1 (both detect adjacency), and G2 contains a pair with a
    strict gap, emitted as a witness.  The fourth clause, equality of
    the two metrics for types A2, A3, B2, B3, C3, D4, is refuted by
    B3: the alcove corner x = (0, 0, 1/2) and its translate
    y = (-3/2, 0, 1/2) have wall distance 2 but no common neighbor
    (the adjacency constraints on a middle vertex are contradictory
    already over the reals, see the distance suite), so the simplicial
    distance is 3.  Equality violations are therefore collected and
    reported in one summary rather than asserted pair by pair; the
    test fails iff any exist, and currently they do, for B3 alone.
    """
    witness = None
    pair_count = 0
    unequal: dict[str, list] = {}
    rng = random.Random(5)

    def compare(name, equal, x, y, wall, simp):
        nonlocal witness, pair_count
        pair_count += 1
        if simp is None:
            # beyond the search depth: the simplicial distance exceeds
            # every wall distance seen here, and an adjacent pair
            # would have been reached at depth 1
            assert wall <= 8 and wall != 1
            if equal:
                unequal.setdefault(name, []).append((x, y, wall, simp))
            return
        assert simp >= wall
        assert (simp == 1) == (wall == 1)
        if simp > wall:
            if name == "G2" and witness is None:
                witness = (name, x, y, wall, simp)
            if equal:
                unequal.setdefault(name, []).append((x, y, wall, simp))

    # Rank-2 types: every pair of the radius-4 ball directly.
    for name in ("A2", "B2", "G2"):
        datum = build_root_datum(parse_type(name))
        equal = name != "G2"
        ball4 = apartment_ball(datum, origin(datum), 4).points
        for x in ball4:
            table = simplicial_distances(datum, x, 10)
            for y in ball4:
                wall = wall_distance(datum, x, y).d
                compare(name, equal, x, y, wall, table.get(y))
    # Rank 3 and 4: both distances are invariant under the finite
    # reflection group fixing the origin, which also maps the radius-4
    # ball onto itself, so sources reduce to the dominant vertices.
    # Each source's fold chain is replayed as an exact affine map into
    # a precomputed corner distance table.
    for name in ("A3", "B3", "C3", "D4"):
        datum = build_root_datum(parse_type(name))
        ball4 = apartment_ball(datum, origin(datum), 4).points
        corners = [alcove_vertex(datum, i) for i in range(datum.rank + 1)]
        tables = [simplicial_distances(datum, c, 9) for c in corners]
        for x in ball_sum(datum, 4).chamber_vertices:
            folded, apply = _fold_map(datum, x)
            table = tables[corners.index(folded)]
            for y in rng.sample(ball4, 3):
                assert apply(y) == fold_pair(datum, x, y)[1]
            for y in ball4:
                wall = wall_distance(datum, x, y).d
                compare(name, True, x, y, wall, table.get(apply(y)))
        # raw sources ground the reduction without any invariance
        # appeal: a direct search from x must agree with the folded
        # corner table on every target
        k = 8 if name == "D4" else 20
        for x in rng.sample(ball4, k):
            folded, apply = _fold_map(datum, x)
            table = tables[corners.index(folded)]
            direct = simplicial_distances(datum, x, 9)
            for y in ball4:
                wall = wall_distance(datum, x, y).d
                simp = direct.get(y)
                assert simp is not None and simp >= wall
                assert (simp == 1) == (wall == 1)
                assert table.get(apply(y)) == simp
    assert witness is not None and witness[0] == "G2"
    # pin one known gap pair explicitly
    g2 = build_root_datum(parse_type("G2"))
    o = origin(g2)
    gap_y = (Fraction(1), Fraction(0))
    assert wall_distance(g2, o, gap_y).d == 3
    assert simplicial_distance(g2, o, gap_y, 10) == 4
    name, wx, wy, wd, wdp = witness
    tail = (
        f"G2 witness x={tuple(map(str, wx))} y={tuple(map(str, wy))} "
        f"wall={wd} simplicial={wdp}"
    )
    if unequal:
        parts = []
        for tname, cases in sorted(unequal.items()):
            cases.sort(key=lambda c: (c[2], c[0], c[1]))
            cx, cy, cw, cs = cases[0]
            parts.append(
                f"{tname}: {len(cases)} unequal pairs with a dominant "
                f"endpoint, smallest x={tuple(map(str, cx))} "
                f"y={tuple(map(str, cy))} wall={cw} simplicial={cs}"
            )
        message = (
            "FAIL criterion 5: domination, adjacency agreement, and the "
            f"G2 gap all hold on {pair_count} pairs ({tail}), but the "
            "equality clause for classical types is false: "
            + "; ".join(parts)
        )
        announce(message)
        pytest.fail(message)
    announce(
        f"PASS criterion 5: simplicial vs wall distance on {pair_count} "
        f"pairs; {tail}"
    )


def test_criterion_06_metric_properties(announce):
    rng = random.Random(20260822)
    triples = 10_000
    for name in ("A2", "B2", "C3", "D4", "G2"):
        datum = build_root_datum(parse_type(name))
        pool = apartment_ball(datum, origin(datum), 3).points
        for _ in range(triples):
            x, y, z = (rng.choice(pool) for _ in range(3))
            dxy = wall_distance(datum, x, y).d
            assert dxy == wall_distance(datum, y, x).d
            assert (dxy == 0) == (x == y)
            dxz = wall_distance(datum, x, z).d
            dyz = wall_distance(datum, y, z).d
            assert dxz <= dxy + dyz, (name, x, y, z)
    announce(
        f"PASS criterion 6: symmetry, definiteness, triangle inequality on "
        f"{triples} sampled triples per type, zero violations"
    )


def test_criterion_07_filtration_bridge(announce):
    rng = random.Random(314159)
    pairs = 1_000
    for name in ("A2", "B2", "C3", "G2"):
        datum = build_root_datum(parse_type(name))
        pool = apartment_ball(datum, origin(datum), 3).points
        for _ in range(pairs):
            x = rng.choice(pool)
            y = rng.choice(pool)
            d = wall_distance(datum, x, y).d
            r2 = rng.randrange(4)
            r1 = r2 + max(1, d + rng.randrange(3))
            assert filtration_contains(datum, x, r1, y, r2), (name, x, y, r1, r2)
        for _ in range(10):
            pts = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            fs = [point_function(datum, p) for p in pts]
            om = omega_function(datum, pts)
            for f in fs:
                assert is_concave(datum, f)
            assert is_concave(datum, om)
            merged = reduce(pointwise_max, fs)
            assert merged == om
            assert is_concave(datum, merged)
            assert is_concave(datum, optimize(datum, om))
            assert is_concave(datum, shift(om, rng.randrange(1, 4)))
    announce(
        f"PASS criterion 7: filtration bridge on {pairs} sampled pairs per "
        f"type; concavity closed under max, optimize, shift"
    )


def test_criterion_08_ball_degree_bounds(announce):
    cases = (
        ("A2", (1, 2, 3)),
        ("B2", (1, 2, 3)),
        ("G2", (1, 2, 3)),
        ("C3", (1, 2)),
        ("D4", (1, 2)),
        ("F4", (1, 2)),
    )
    vertex_count = 0
    for name, radii in cases:
        datum = build_root_datum(parse_type(name))
        exponent = growth_exponent(datum)
        num_pos = len(datum.positive_roots)
        scale = datum.scale
        for r in radii:
            report = ball_sum(datum, r)
            for x in report.chamber_vertices:
                e = quotient_exponents(datum, x)
                two_rho_x = sum(
                    eval_root(datum, root, x) for root in datum.positive_roots
                )
                assert e <= two_rho_x
                vertex_count += 1
            degree = report.lower_poly.degree
            assert degree <= r * exponent
            assert degree >= r * exponent - num_pos
            for r_prime in (1, 2):
                capped = quotient_ball_sum(datum, r, r_prime)
                assert capped.degree <= (r_prime - 1) * num_pos
            bound = prod(
                scale * r // c + 1 for c in datum.highest_root_coeffs
            )
            assert len(report.chamber_vertices) <= bound
    announce(
        f"PASS criterion 8: exponent <= 2-rho on {vertex_count} vertices; "
        f"census degree and term-count bounds hold"
    )


def test_criterion_09_sandwich_consistency(announce):
    reports = 0
    for name in ("A2", "B2", "G2"):
        datum = build_root_datum(parse_type(name))
        mark_sum = sum(datum.highest_root_coeffs)
        divisor = datum.rank + 1
        for big_r in (0, 1, 2):
            for r in range(1, 9):
                report = cind_sandwich(datum, big_r, r)
                assert report.lower_radius == r - big_r - 2
                assert report.upper_radius == 2 + (r + 1) * mark_sum
                assert report.upper_level == r + 1
                for q0 in (2, 3, 5):
                    upper = report.upper_poly.evaluate(q0)
                    if report.lower_empty:
                        lower = Fraction(0)
                    else:
                        lower = Fraction(report.lower_poly.evaluate(q0), divisor)
                    assert lower <= upper, (name, big_r, r, q0)
                reports += 1
    announce(
        f"PASS criterion 9: sandwich radii arithmetic and lower/upper "
        f"ordering at q in (2,3,5) on {reports} reports"
    )


def test_criterion_10_parabolic_shift(announce):
    subsets = 0
    for name in (
        "A1", "A2", "A3", "A4",
        "B2", "B3", "B4",
        "C2", "C3", "C4",
        "D4", "F4", "G2",
    ):
        datum = build_root_datum(parse_type(name))
        d = datum.rank
        num_pos = len(datum.positive_roots)
        for bits in product((0, 1), repeat=d):
            levi = [j + 1 for j in range(d) if bits[j]]
            outside = [j for j in range(d) if not bits[j]]
            expected = sum(
                1
                for root in datum.positive_roots
                if any(root[j] != 0 for j in outside)
            )
            assert parabolic_shift(datum, levi) == expected, (name, levi)
            subsets += 1
        assert parabolic_shift(datum, []) == num_pos
        assert parabolic_shift(datum, list(range(1, d + 1))) == 0
    announce(
        f"PASS criterion 10: parabolic shift equals support-count oracle on "
        f"{subsets} subsets"
    )


def _alcove_launcher():
    """Command prefix and environment that start the `alcove` CLI.

    The installed console script is used when it is on PATH.  From a
    source checkout nothing is installed, so the fallback runs
    `python -m alcove.cli` (the same `alcove.cli:main` the console
    script maps to) with the directory holding the imported `alcove`
    package first on the child's PYTHONPATH, so the child runs the
    code under test.
    """
    exe = shutil.which("alcove")
    if exe is not None:
        return [exe], None, exe
    package_root = str(Path(alcove.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return [sys.executable, "-m", "alcove.cli"], env, "python -m alcove.cli"


def test_criterion_11_feasibility(announce):
    command, env, launcher = _alcove_launcher()
    timings = []
    for args in (
        ["ball", "--type", "E8", "--radius", "1"],
        ["ball", "--type", "E7", "--radius", "2"],
    ):
        start = time.monotonic()
        first = subprocess.run(
            [*command, *args], env=env, capture_output=True, timeout=600,
            check=True,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        second = subprocess.run(
            [*command, *args], env=env, capture_output=True, timeout=600,
            check=True,
        )
        assert first.stdout == second.stdout
        assert first.stdout.strip()
        timings.append(f"{args[2]} r={args[4]} {elapsed:.1f}s")
    announce(
        "PASS criterion 11: large-type census runs complete and repeat "
        "byte-identically via " + launcher + " (" + ", ".join(timings) + ")"
    )
