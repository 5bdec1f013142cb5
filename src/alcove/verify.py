"""Self-check suites for the command line.

Each suite returns (passed, payload).  The payload is JSON-ready and
records what was checked, and passed is read off the flags it records,
so the two cannot disagree; suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .apartment import (
    in_scaled_alcove,
    is_vertex,
    iter_scaled_alcove_vertices,
    origin,
)
from .cartan import RootSystemType, build_root_datum, parse_type, positive_root_count
from .distance import iter_wall_ball_points, simplicial_distances, wall_distance
from .growth import (
    ball_sum,
    cind_sandwich,
    gamma_polynomial,
    growth_exponent,
    theorem_table,
)
from .moyprasad import (
    index_exponent,
    is_concave,
    omega_function,
    point_function,
    pointwise_max,
    optimize,
    shift,
)

def verify_metric(seed: int, budget: int | None) -> tuple[bool, dict]:
    """Wall metric axioms on sampled vertex triples."""
    rng = random.Random(seed)
    per_type = []
    for name in ("A2", "B2", "G2"):
        datum = build_root_datum(parse_type(name))
        ball = sorted(iter_wall_ball_points(datum, origin(datum), 2, budget=budget))
        identity_ok = all(wall_distance(datum, x, x).d == 0 for x in ball)
        trials = 300
        # per triple: whether x == y, then d(x, y), d(y, x), d(y, z), d(x, z)
        records = []
        for _ in range(trials):
            x, y, z = (ball[rng.randrange(len(ball))] for _ in range(3))
            pairs = ((x, y), (y, x), (y, z), (x, z))
            records.append((x == y, *(wall_distance(datum, a, b).d for a, b in pairs)))
        per_type.append(
            {
                "type": name,
                "ball_size": len(ball),
                "triples": trials,
                "identity": identity_ok,
                "symmetry": all(dxy == dyx for _, dxy, dyx, _, _ in records),
                "definiteness": all((dxy == 0) == same for same, dxy, _, _, _ in records),
                "triangle": all(dxz <= dxy + dyz for _, dxy, _, dyz, dxz in records),
            }
        )
    axioms = ("identity", "symmetry", "definiteness", "triangle")
    return all(check[a] for check in per_type for a in axioms), {"checks": per_type}


def _grid_vertex_oracle(datum, r: int) -> set:
    """Brute force: scan the full 1/scale grid over the dilated alcove."""
    scale = datum.scale
    marks = datum.highest_root_coeffs
    axes = [range(0, r * scale // c + 1) for c in marks]
    found = set()
    for a in product(*axes):
        if sum(c * v for c, v in zip(marks, a)) > r * scale:
            continue
        point = tuple(Fraction(v, scale) for v in a)
        if is_vertex(datum, point):
            found.add(point)
    return found


def verify_polytope(budget: int | None) -> tuple[bool, dict]:
    """Dilated-alcove vertex enumeration against a full-grid scan."""
    cases = []
    for name, radii in (("A1", (0, 1, 2, 3)), ("A2", (1, 2, 3)), ("B2", (1, 2, 3)), ("G2", (1, 2))):
        datum = build_root_datum(parse_type(name))
        for r in radii:
            fast = set(iter_scaled_alcove_vertices(datum, r, budget=budget))
            slow = _grid_vertex_oracle(datum, r)
            match = fast == slow and all(in_scaled_alcove(datum, r, p) for p in fast)
            cases.append({"type": name, "radius": r, "count": len(slow), "match": match})
    return all(case["match"] for case in cases), {"cases": cases}


def _expected_growth(rstype: RootSystemType) -> Fraction:
    family, d = rstype.family, rstype.rank
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
    if family == "E":
        return {6: Fraction(16), 7: Fraction(27), 8: Fraction(46)}[d]
    if family == "F":
        return Fraction(11)
    return Fraction(10, 3)


def verify_table() -> tuple[bool, dict]:
    """Growth exponent table against the closed-form family formulas."""
    max_classical_rank = 12
    table = theorem_table(max_classical_rank)
    mismatches = []
    for row in table.rows:
        expected = _expected_growth(row.rstype)
        lower = -(-expected.numerator // expected.denominator)
        upper = positive_root_count(row.rstype)
        if (
            row.growth_exponent != expected
            or row.cdim_lower != lower
            or row.cdim_upper != upper
        ):
            mismatches.append(str(row.rstype))
    return not mismatches, {
        "rows": len(table.rows),
        "max_classical_rank": max_classical_rank,
        "mismatches": mismatches,
    }


def verify_growth(budget: int | None) -> tuple[bool, dict]:
    """Ball census bounds: degree window, factorization, type counts."""
    cases = []
    for name, radii in (("A2", (1, 2, 3)), ("B2", (1, 2, 3)), ("C3", (1, 2)), ("G2", (1, 2))):
        datum = build_root_datum(parse_type(name))
        exponent = growth_exponent(datum)
        num_pos = len(datum.positive_roots)
        for r in radii:
            report = ball_sum(datum, r, budget=budget)
            ok = report.max_two_rho == r * exponent
            ok = ok and report.upper_poly == gamma_polynomial(datum) * report.lower_poly
            ok = ok and sum(report.per_type_counts) == report.vertex_count_chamber
            ok = ok and report.lower_poly.evaluate(1) == report.vertex_count_chamber
            degree = report.lower_poly.degree
            ok = ok and r * exponent - num_pos <= degree <= r * exponent
            if r == 1:
                ok = ok and report.per_type_counts == (1,) * (datum.rank + 1)
            cases.append(
                {
                    "type": name,
                    "radius": r,
                    "vertices": report.vertex_count_chamber,
                    "degree": degree,
                    "ok": ok,
                }
            )
    return all(case["ok"] for case in cases), {"cases": cases}


def verify_sandwich(budget: int | None) -> tuple[bool, dict]:
    """Two-sided bound reports: radius arithmetic and numeric ordering."""
    cases = []
    for name in ("A2", "B2", "G2"):
        datum = build_root_datum(parse_type(name))
        for R, r in ((0, 3), (1, 4)):
            report = cind_sandwich(datum, R, r, budget=budget)
            ok = report.lower_radius == r - R - 2
            ok = ok and report.lower_divisor == datum.rank + 1
            ok = ok and report.upper_radius == 2 + (r + 1) * sum(
                datum.highest_root_coeffs
            )
            ok = ok and report.upper_level == r + 1
            ok = ok and report.lower_empty == (report.lower_radius < 0)
            ordered = report.lower_empty or all(
                Fraction(report.lower_poly.evaluate(q0), report.lower_divisor)
                <= report.upper_poly.evaluate(q0)
                for q0 in (2, 3)
            )
            cases.append({"type": name, "R": R, "r": r, "ok": ok and ordered})
    return all(case["ok"] for case in cases), {"cases": cases}


def verify_concavity(seed: int) -> tuple[bool, dict]:
    """Closure of concavity under the function calculus."""
    rng = random.Random(seed)
    cases = []
    for name in ("A2", "B2", "G2"):
        datum = build_root_datum(parse_type(name))
        scale = datum.scale
        low, high = -3 * scale, 3 * scale + 1
        trials = 20
        passed = []
        for _ in range(trials):
            x, y = (
                tuple(Fraction(rng.randrange(low, high), scale) for _ in range(datum.rank))
                for _ in range(2)
            )
            fx = point_function(datum, x)
            fy = point_function(datum, y)
            omega = omega_function(datum, (x, y))
            passed.append(
                all(
                    is_concave(datum, f)
                    for f in (fx, omega, optimize(datum, omega), shift(fx, 2))
                )
                and pointwise_max(fx, fy).values == omega.values
                and index_exponent(datum, shift(fx, 1), shift(omega, 1)).exponent >= 0
            )
        cases.append({"type": name, "trials": trials, "ok": all(passed)})
    return all(case["ok"] for case in cases), {"cases": cases}


def verify_g2_gap(budget: int | None) -> tuple[bool, dict]:
    """Wall vs simplicial metric: equality spot check and the gap witness."""
    a2 = build_root_datum(parse_type("A2"))
    a2_ball = sorted(iter_wall_ball_points(a2, origin(a2), 2, budget=budget))
    tables = {x: simplicial_distances(a2, x, 6) for x in a2_ball}
    equal_ok = all(
        tables[x].get(y) == wall_distance(a2, x, y).d for x in a2_ball for y in a2_ball
    )

    g2 = build_root_datum(parse_type("G2"))
    g2_ball = sorted(iter_wall_ball_points(g2, origin(g2), 4, budget=budget))
    witness = None
    monotone_ok = True
    pairs = 0
    for x in g2_ball:
        dists = simplicial_distances(g2, x, 8)
        for y in g2_ball:
            pairs += 1
            wall = wall_distance(g2, x, y).d
            simp = dists.get(y, 9)
            if simp < wall:
                monotone_ok = False
            if simp > wall and witness is None:
                witness = {
                    "x": [str(t) for t in x],
                    "y": [str(t) for t in y],
                    "wall": wall,
                    "simplicial": simp,
                }
        if witness is not None:
            break
    return equal_ok and monotone_ok and witness is not None, {
        "a2_equality": equal_ok,
        "a2_ball_size": len(a2_ball),
        "g2_ball_size": len(g2_ball),
        "g2_pairs_checked": pairs,
        "g2_monotone": monotone_ok,
        "g2_witness": witness,
    }


# every suite by name, in canonical order, as a callable of (seed, budget)
SUITES = {
    "metric": verify_metric,
    "polytope": lambda seed, budget: verify_polytope(budget),
    "table": lambda seed, budget: verify_table(),
    "growth": lambda seed, budget: verify_growth(budget),
    "sandwich": lambda seed, budget: verify_sandwich(budget),
    "concavity": lambda seed, budget: verify_concavity(seed),
    "g2-gap": lambda seed, budget: verify_g2_gap(budget),
}
SUITE_NAMES = tuple(SUITES)


def run_suites(names, *, seed: int, budget: int | None) -> tuple[bool, dict]:
    """Run the named suites in canonical order; (all passed, results)."""
    chosen = set(names) if names else SUITES
    results = {}
    for name, suite in SUITES.items():
        if name in chosen:
            passed, payload = suite(seed, budget)
            results[name] = {"passed": passed, **payload}
    return all(r["passed"] for r in results.values()), results
