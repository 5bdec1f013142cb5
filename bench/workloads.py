"""The three workloads: the operations of one round, and the check of each output.

A round is a fixed list of items.  An item is one or more operations run
back to back and then checked together against oracle.py.  The seed picks
the inputs; it never changes how many operations a round has.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import oracle as O
from spans import CLI_SPAN

BRUTE_FORCE_LIMIT = 3_000  # grid points; beyond this the vertex count is not brute-forced


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def least_budget(run, limit_error) -> int:
    """The least budget under which run(budget) completes, which is the number
    of candidates it examines; budget - 1 must raise limit_error."""

    def completes(budget: int) -> bool:
        try:
            run(budget)
        except limit_error:
            return False
        return True

    hi = 1
    while not completes(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if completes(mid):
            hi = mid
        else:
            lo = mid
    expect(hi == 1 or not completes(hi - 1), "budget - 1 did not raise EnumerationLimitError")
    return hi


class Item:
    __slots__ = ("label", "calls", "check", "may_fail")

    def __init__(self, label, calls, check, may_fail=False):
        self.label = label
        self.calls = calls  # list of zero-argument callables, each one timed operation
        self.check = check  # called with the list of results
        self.may_fail = may_fail


def _terms(poly: dict) -> dict[int, int]:
    return {int(e): int(c) for e, c in poly["terms"]}


def _family(name: str) -> tuple[str, int]:
    return name[0], int(name[1:])


class Workload:
    types: tuple[str, ...] = ()

    def __init__(self, alcove, seed: int, tracer=None):
        self.A = alcove
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed + 1)
        self.tracer = tracer
        self.data: dict = {}
        self.geo: dict[str, O.Geometry] = {}
        self._counts: dict = {}
        self._degrees: dict = {}
        self.items: list[Item] = []
        self.warm_up_checks: list = []

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        """Build every root datum the workload uses, its sample pools, and
        warm every layer once; the process is then ready."""
        A = self.A
        for name in sorted(set(self.types) | {"A2"}):
            datum = A.build_root_datum(A.parse_type(name))
            self.data[name] = datum
            self.geo[name] = O.Geometry(*_family(name), datum.cartan)
        self.prepare()
        self.warm_up()
        self.items = self.make_round()

    def prepare(self) -> None:
        """Sample pools and other program outputs the round draws on."""

    def check_setup(self) -> None:
        """Check what set-up produced: root data, warm-up results, pools."""
        for name, datum in self.data.items():
            g = self.geo[name]
            expect(set(datum.positive_roots) == set(g.roots), f"{name}: positive roots differ")
            expect(tuple(datum.highest_root_coeffs) == g.marks, f"{name}: marks differ")
        for check in self.warm_up_checks:
            check()

    def warm_up(self) -> None:
        """One small call into every layer on A2, so first-call costs fall in
        set-up for every workload and the traced run sees every layer."""
        A, d, g = self.A, self.data["A2"], self.geo["A2"]
        o, v1, v2 = (g.unscaled(g.corner(i)) for i in range(3))
        ball = self.cli(["ball", "--type", "A2", "--radius", "2", "--level", "1", "--q-eval", "2"])
        table = A.simplicial_distances(d, o, 2)
        wall = A.wall_distance(d, o, v1).d
        flags = (A.is_vertex(d, v1), A.vertex_type(d, v2))
        moved = g.translate(g.corner(1), (1, -1))
        fx, fy = A.fold_pair(d, g.unscaled(moved), o)
        contains = A.filtration_contains(d, o, 2, v1, 1)
        f = A.shift(A.point_function(d, o), 1)
        index = A.index_exponent(d, f, A.shift(A.omega_function(d, [o, v1]), 1)).exponent
        qe = A.quotient_exponents(d, (Fraction(2), Fraction(1)))
        ring = list(A.iter_wall_ball_points(d, o, 1))
        zero = g.corner(0)

        def check():
            self.check_ball("A2", 2, 1, 2, ball)
            expect(sorted(Counter(table.values()).items()) == [(0, 1), (1, 6), (2, 12)], "A2 spheres")
            expect(wall == 1 and flags == (True, 2), "A2 corner queries")
            expect(g.scaled(fx) == g.corner(1), "A2 fold")
            expect(
                g.wall_distance(g.scaled(fx), g.scaled(fy)) == g.wall_distance(moved, zero),
                "A2 fold keeps distance",
            )
            expect(contains == (g.max_root_gap(zero, g.corner(1)) <= 1), "A2 filtration")
            expect(index == g.index_exponent(zero, g.corner(1)), "A2 index exponent")
            expect(qe == g.quotient_exponent(g.scaled((2, 1)), None), "A2 quotient exponent")
            expect(len(ring) == 7 and all(g.wall_distance(zero, g.scaled(p)) <= 1 for p in ring), "A2 ball")

        self.warm_up_checks.append(check)

    def make_round(self) -> list[Item]:
        raise NotImplementedError

    # ------------------------------------------------------------ exact counts
    def bisection_walks(self) -> list[tuple[str, int]]:
        """(type, r) whose dilated-alcove walk is counted by bisection."""
        return [("A2", 2)]

    def bisection_searches(self) -> list:
        """Searches, as functions of candidate_budget, counted by bisection."""
        A, d, g = self.A, self.data["A2"], self.geo["A2"]
        return [lambda b: A.simplicial_distances(d, g.unscaled(g.corner(0)), 2, candidate_budget=b)]

    def exact_counts(self) -> dict[str, int]:
        """Work counted from outside: the least budget under which each stated
        operation completes is the number of candidates it examines."""
        A = self.A
        walk_candidates = walk_vertices = 0
        for name, r in self.bisection_walks():
            d = self.data[name]
            walk_candidates += least_budget(
                lambda b: list(A.iter_scaled_alcove_vertices(d, r, budget=b)), A.EnumerationLimitError
            )
            walk_vertices += len(list(A.iter_scaled_alcove_vertices(d, r)))
        search_candidates = sum(
            least_budget(run, A.EnumerationLimitError) for run in self.bisection_searches()
        )
        return {
            "walk_candidates": walk_candidates,
            "walk_vertices": walk_vertices,
            "search_candidates": search_candidates,
        }

    # ------------------------------------------------------------ shared
    def cli(self, args: list[str]) -> str:
        """One `alcove` command through the click entry point, stdout captured."""
        from alcove.cli import main

        buffer = io.StringIO()
        tracer = self.tracer
        if tracer is None:
            with contextlib.redirect_stdout(buffer):
                main.main(args=args, prog_name="alcove", standalone_mode=False)
            return buffer.getvalue()
        walks = tracer.counters.get("apartment.walk.calls", 0)
        index = tracer.open(CLI_SPAN)
        try:
            with contextlib.redirect_stdout(buffer):
                main.main(args=args, prog_name="alcove", standalone_mode=False)
        finally:
            tracer.close(index)
        out = buffer.getvalue()
        tracer.count("cli.ops")
        tracer.count("cli.walks", tracer.counters.get("apartment.walk.calls", 0) - walks)
        tracer.count("cli.output_bytes", len(out.encode()))
        return out

    def vertex_count(self, name: str, r: int) -> int | None:
        """Vertices of rC from a closed form (type A) or by brute force, if small."""
        key = (name, r)
        if key not in self._counts:
            family, n = _family(name)
            g = self.geo[name]
            if family == "A":
                self._counts[key] = O.type_a_vertex_count(n, r)
            elif O.grid_points_in_scaled_alcove(g.marks, g.N, r) <= BRUTE_FORCE_LIMIT:
                self._counts[key] = O.brute_force_vertex_count(g, r)
            else:
                self._counts[key] = None
        return self._counts[key]

    def corner_degree(self, name: str, i: int) -> int:
        key = (name, i)
        if key not in self._degrees:
            g = self.geo[name]
            self._degrees[key] = O.corner_degree(g.cartan, g.marks, i)
        return self._degrees[key]

    def check_chamber(self, name: str, r: int, points: list, counts) -> list[tuple[int, ...]]:
        """Vertices claimed for rC: distinct, inside rC, counted right, a sample full rank."""
        g = self.geo[name]
        try:
            pts = [g.scaled(p) for p in points]
        except ValueError as err:
            raise CheckError(f"{name} r={r}: {err}") from err
        n = len(pts)
        expect(len(set(pts)) == n, f"{name} r={r}: vertices repeat")
        expect(all(g.in_scaled_alcove(a, r) for a in pts), f"{name} r={r}: vertex outside rC")
        expect(sum(counts) == n, f"{name} r={r}: per-type counts do not add up")
        special = counts[0] + sum(counts[i + 1] for i, c in enumerate(g.marks) if c == 1)
        expect(special == O.special_vertex_count(g.marks, r), f"{name} r={r}: special vertex count")
        known = self.vertex_count(name, r)
        expect(known is None or n == known, f"{name} r={r}: {n} vertices, expected {known}")
        for a in self.check_rng.sample(pts, min(3, n)):
            expect(g.is_vertex(a), f"{name} r={r}: {a} fails the rank test")
        return pts

    def check_ball(self, name: str, r: int, level, q, out: str) -> None:
        data = json.loads(out)
        family, n = _family(name)
        g = self.geo[name]
        expect(
            (data["command"], data["type"], data["radius"]) == ("ball", name, r),
            f"ball {name} r={r}: header",
        )
        pts = self.check_chamber(name, r, data["chamber_vertices"], data["per_type_counts"])
        expect(data["vertex_count_chamber"] == len(pts), f"ball {name} r={r}: vertex count")
        lower = _terms(data["lower"])
        expect(
            lower == dict(Counter(g.quotient_exponent(a, None) for a in pts)),
            f"ball {name} r={r}: lower polynomial",
        )
        exponent = O.growth_exponent(family, n)
        top = Fraction(data["max_two_rho"])
        expect(top == r * exponent, f"ball {name} r={r}: max 2rho {top} != {r * exponent}")
        expect(top == max(g.two_rho(a) for a in pts), f"ball {name} r={r}: max 2rho not attained")
        gamma = _terms(data["gamma"])
        expect(gamma == O.gamma_terms(family, n), f"ball {name}: gamma polynomial")
        expect(max(gamma) == O.group_dimension(family, n), f"ball {name}: deg gamma != dim G")
        expect(_terms(data["upper"]) == O.poly_mul(gamma, lower), f"ball {name} r={r}: upper != gamma*lower")
        expect(
            r * exponent - len(g.roots) <= max(lower) <= r * exponent,
            f"ball {name} r={r}: deg lower outside [r exp - N, r exp]",
        )
        quotient = None
        if level is not None:
            expect(data["quotient"]["level"] == level, f"ball {name}: quotient level")
            quotient = _terms(data["quotient"])
            expect(
                quotient == dict(Counter(g.quotient_exponent(a, level) for a in pts)),
                f"ball {name} r={r}: level-{level} quotient polynomial",
            )
        if q is not None:
            values = data["q_eval"]
            expect(values["q"] == q, f"ball {name}: q")
            polys = {"lower": lower, "upper": _terms(data["upper"]), "gamma": gamma}
            if quotient is not None:
                polys["quotient"] = quotient
            expect(set(values) == set(polys) | {"q"}, f"ball {name}: q_eval keys")
            for key, poly in polys.items():
                expect(int(values[key]) == O.poly_eval(poly, q), f"ball {name}: {key}({q})")

    def check_sandwich(self, name: str, R: int, r: int, q, out: str) -> None:
        data = json.loads(out)
        family, n = _family(name)
        g = self.geo[name]
        tag = f"sandwich {name} R={R} r={r}"
        expect(
            (data["command"], data["type"], data["big_radius"], data["level"]) == ("sandwich", name, R, r),
            f"{tag}: header",
        )
        lower, upper = data["lower"], data["upper"]
        lower_radius = r - R - 2
        upper_radius = 2 + (r + 1) * sum(g.marks)
        expect(
            (lower["radius"], lower["divisor"], lower["empty"]) == (lower_radius, n + 1, lower_radius < 0),
            f"{tag}: lower header",
        )
        expect((upper["radius"], upper["level"]) == (upper_radius, r + 1), f"{tag}: upper header")
        gamma = O.gamma_terms(family, n)
        U = _terms(upper["poly"])
        census, rest = O.poly_divmod(U, gamma)
        expect(not rest and all(c > 0 for c in census.values()), f"{tag}: upper is not gamma times a census")
        known = self.vertex_count(name, upper_radius)
        expect(known is None or O.poly_eval(census, 1) == known, f"{tag}: upper census count")
        L = None
        if lower_radius >= 0:
            L = _terms(lower["poly"])
            known = self.vertex_count(name, lower_radius)
            expect(known is None or O.poly_eval(L, 1) == known, f"{tag}: lower census count")
            for at in (2, 3):
                expect(
                    Fraction(O.poly_eval(L, at), n + 1) <= O.poly_eval(U, at),
                    f"{tag}: lower/divisor > upper at q={at}",
                )
        else:
            expect(lower["poly"] is None, f"{tag}: lower should be empty")
        if q is not None:
            values = data["q_eval"]
            want_lower = None if L is None else str(Fraction(O.poly_eval(L, q), n + 1))
            expect(
                (values["q"], values["lower_over_divisor"], values["upper"])
                == (q, want_lower, str(O.poly_eval(U, q))),
                f"{tag}: q_eval",
            )


class Census(Workload):
    """`alcove ball` and `alcove sandwich` through the CLI, output parsed and checked."""

    # (type, radius, with --level, with --q-eval)
    BALLS = (
        ("E6", 2, False, False), ("E6", 3, False, True), ("E6", 4, False, False),
        ("E7", 2, False, False), ("E7", 3, True, False),
        ("E8", 2, False, False), ("E8", 3, False, False),
        ("F4", 3, True, False), ("F4", 5, False, True),
        ("G2", 6, True, True), ("B4", 4, False, False), ("C4", 4, True, False),
        ("D5", 4, False, True), ("A5", 4, False, False), ("A7", 4, True, True),
    )
    # (type, R, r, with --q-eval)
    SANDWICHES = (
        ("A2", 0, 5, True), ("A3", 1, 3, False), ("G2", 0, 1, True), ("B2", 0, 2, False), ("C3", 0, 1, True),
    )
    types = tuple(sorted({b[0] for b in BALLS} | {s[0] for s in SANDWICHES}))
    Q_VALUES = (2, 3, 4, 5, 7, 8, 9, 11)

    def make_round(self) -> list[Item]:
        rng = self.rng
        items = []
        for name, r, with_level, with_q in self.BALLS:
            level = rng.randint(1, r + 1) if with_level else None
            q = rng.choice(self.Q_VALUES) if with_q else None
            args = ["ball", "--type", name, "--radius", str(r)]
            args += ["--level", str(level)] if level is not None else []
            args += ["--q-eval", str(q)] if q is not None else []
            items.append(Item(
                f"ball {name} r={r}",
                [lambda args=args: self.cli(args)],
                lambda res, name=name, r=r, level=level, q=q: self.check_ball(name, r, level, q, res[0]),
            ))
        for name, R, r, with_q in self.SANDWICHES:
            q = rng.choice(self.Q_VALUES) if with_q else None
            args = ["sandwich", "--type", name, "--R", str(R), "--r", str(r)]
            args += ["--q-eval", str(q)] if q is not None else []
            items.append(Item(
                f"sandwich {name}",
                [lambda args=args: self.cli(args)],
                lambda res, name=name, R=R, r=r, q=q: self.check_sandwich(name, R, r, q, res[0]),
            ))
        rng.shuffle(items)
        return items

    def check_setup(self) -> None:
        super().check_setup()
        # the oracle's vertex counts, before the clock starts
        for name, r, _, _ in self.BALLS:
            self.vertex_count(name, r)
        for name, R, r, _ in self.SANDWICHES:
            self.vertex_count(name, 2 + (r + 1) * sum(self.geo[name].marks))
            if r - R - 2 >= 0:
                self.vertex_count(name, r - R - 2)

    def bisection_walks(self):
        return [("A2", 2), ("G2", 6), ("F4", 3), ("B4", 4), ("E6", 2)]


class Search(Workload):
    """Simplicial-distance tables and point queries."""

    # (type, alcove corner the source is a translate of, depth)
    TABLES = (
        (("A2", 0, 10),)
        + tuple(("B3", i, 9) for i in range(4))
        + tuple(("C3", i, 9) for i in range(4))
        + (("D4", 0, 8), ("F4", 0, 1), ("E6", 0, 1))
    )
    # the paper's gap pairs: (type, x, y, wall distance, simplicial distance)
    GAPS = (
        ("G2", (0, 0), (1, 0), 3, 4),
        ("B3", (0, 0, Fraction(1, 2)), (Fraction(-3, 2), 0, Fraction(1, 2)), 2, 3),
    )
    GAP_IMAGES = 2
    # Origin -> v_7 in E7 is one edge, but the box scan behind it examines
    # about 13^7 candidates; with this budget the query fails every time.
    E7_BUDGET = 5_000
    SAMPLE = 400
    types = ("A2", "B3", "C3", "D4", "E6", "E7", "F4", "G2")

    def make_round(self) -> list[Item]:
        A, rng = self.A, self.rng
        items = []
        for name, corner, depth in self.TABLES:
            g = self.geo[name]
            # a coroot translate keeps coordinates mod N, so the search costs
            # the same for every seed while its outputs differ
            source = g.translate(g.corner(corner), [rng.randint(-3, 3) for _ in range(g.rank)])
            point = g.unscaled(source)
            items.append(Item(
                f"table {name} v{corner} depth {depth}",
                [lambda d=self.data[name], p=point, k=depth: A.simplicial_distances(d, p, k)],
                lambda res, name=name, c=corner, k=depth, s=source: self.check_table(name, c, k, s, res[0]),
            ))
        for name, x, y, wall, simplicial in self.GAPS:
            g = self.geo[name]
            for _ in range(self.GAP_IMAGES):
                a, b = g.affine_images([g.scaled(x), g.scaled(y)], rng, reflections=6, reach=3)
                items.append(Item(
                    f"gap {name}",
                    [lambda d=self.data[name], p=g.unscaled(a), q=g.unscaled(b): A.simplicial_distance(d, p, q, 10)],
                    lambda res, g=g, a=a, b=b, w=wall, s=simplicial: (
                        expect(g.wall_distance(a, b) == w, f"gap pair wall distance != {w}"),
                        expect(res[0] == s, f"gap pair simplicial distance {res[0]} != {s}"),
                    ),
                ))
        g7 = self.geo["E7"]
        o, v7 = g7.corner(0), g7.corner(7)
        items.append(Item(
            "E7 adjacency, budgeted",
            [lambda d=self.data["E7"], p=g7.unscaled(o), q=g7.unscaled(v7):
                A.simplicial_distance(d, p, q, 1, candidate_budget=self.E7_BUDGET)],
            lambda res: (
                expect(g7.wall_distance(o, v7) == 1, "E7 origin and v7 are not adjacent"),
                expect(res[0] == 1, f"E7 adjacency gave {res[0]}"),
            ),
            may_fail=True,
        ))
        # a fixed order: the tables are large, and their order sets the peak memory
        return items

    def check_table(self, name: str, corner: int, depth: int, source, table: dict) -> None:
        g = self.geo[name]
        tag = f"table {name} v{corner} depth {depth}"
        spheres = Counter(table.values())
        expect(
            table.get(g.unscaled(source)) == 0 and spheres[0] == 1,
            f"{tag}: source is not the only depth-0 vertex",
        )
        expect(all(0 <= k <= depth for k in spheres), f"{tag}: depth out of range")
        degree = self.corner_degree(name, corner)
        expect(spheres[1] == degree, f"{tag}: {spheres[1]} neighbours, expected {degree}")
        if name == "A2":
            expect(all(spheres[k] == 6 * k for k in range(1, depth + 1)), f"{tag}: A2 sphere sizes")
            sample = list(table)
        else:
            sample = self.check_rng.sample(list(table), min(self.SAMPLE, len(table)))
            sample += [p for p, k in table.items() if k == 1]
        for p in sample:
            try:
                a = g.scaled(p)
            except ValueError as err:
                raise CheckError(f"{tag}: {err}") from err
            k, w = table[p], g.wall_distance(source, a)
            expect(w <= k, f"{tag}: wall distance {w} > simplicial {k} at {a}")
            expect((w == 1) == (k == 1), f"{tag}: adjacency differs at {a}")
            expect(name != "A2" or w == k, f"{tag}: A2 metrics differ at {a}")
        for p in sample[:3]:
            expect(g.is_vertex(g.scaled(p)), f"{tag}: {p} fails the rank test")

    def check_setup(self) -> None:
        super().check_setup()
        # the oracle's corner degrees, before the clock starts
        for name, corner, _ in self.TABLES:
            self.corner_degree(name, corner)

    def bisection_searches(self):
        A = self.A
        runs = super().bisection_searches()
        a2, g = self.data["A2"], self.geo["A2"]
        runs.append(lambda b: A.simplicial_distances(a2, g.unscaled(g.corner(0)), 10, candidate_budget=b))
        for name, x, y, _, _ in self.GAPS:
            d = self.data[name]
            runs.append(lambda b, d=d, x=x, y=y: A.simplicial_distance(d, x, y, 10, candidate_budget=b))
        return runs


class Pairs(Workload):
    """Many small library queries on sampled vertices."""

    types = ("A3", "B3", "C3", "D4", "E6", "E7", "E8")
    BALL_POOLS = ("A3", "B3", "C3", "D4")  # wall balls of radius 2 about the origin
    CHAMBER_POOLS = ("E6", "E7", "E8")  # vertices of 2C moved by affine Weyl elements
    GROUPS = 25  # query groups per type per round, 12 operations each
    INDEX = {"D4": 12, "E6": 12, "E7": 12}  # index_exponent calls per round

    def prepare(self) -> None:
        A, rng = self.A, self.rng
        self.ball_out, self.chamber_out = {}, {}
        self.pool, self.chamber, self.corners = {}, {}, {}
        for name in self.types:
            d, g = self.data[name], self.geo[name]
            if name in self.BALL_POOLS:
                points = list(A.iter_wall_ball_points(d, g.unscaled(g.corner(0)), 2))
                self.ball_out[name] = points
                pool = [g.scaled(p) for p in points]
                chamber = [a for a in pool if min(a) >= 0]
            else:
                vs = A.enumerate_scaled_alcove_vertices(d, 2)
                self.chamber_out[name] = vs
                chamber = [g.scaled(p) for p in vs.points]
                pool = [g.affine_images([a], rng, reflections=8, reach=2)[0] for a in chamber]
            corners = []
            for _ in range(2 * (g.rank + 1)):
                i = rng.randrange(g.rank + 1)
                corners.append((i, g.affine_images([g.corner(i)], rng, reflections=8, reach=2)[0]))
            self.pool[name] = pool + [a for _, a in corners]
            self.chamber[name] = chamber
            self.corners[name] = corners

    def check_setup(self) -> None:
        super().check_setup()
        for name, points in self.ball_out.items():
            g = self.geo[name]
            pts = {g.scaled(p) for p in points}
            expect(len(pts) == len(points), f"{name} ball: points repeat")
            expect(pts == self.brute_force_ball(name, 2), f"{name} ball: wrong vertex set")
        for name, vs in self.chamber_out.items():
            self.check_chamber(name, 2, vs.points, vs.per_type_counts)

    def brute_force_ball(self, name: str, r: int) -> set:
        """Vertices within wall distance r of the origin, from the 1/N grid of the box
        [-r, r]^d: a coordinate alpha_i(x) beyond r forces more than r - 1 walls."""
        g = self.geo[name]
        zero = g.corner(0)
        span = range(-r * g.N, r * g.N + 1)
        found = set()
        point = [0] * g.rank

        def walk(j: int) -> None:
            if j == g.rank:
                a = tuple(point)
                if g.wall_distance(zero, a) <= r and g.is_vertex(a):
                    found.add(a)
                return
            for v in span:
                point[j] = v
                walk(j + 1)

        walk(0)
        return found

    def make_round(self) -> list[Item]:
        A, rng = self.A, self.rng
        items = []
        for name in self.types:
            d, g = self.data[name], self.geo[name]
            pool, chamber, corners = self.pool[name], self.chamber[name], self.corners[name]
            for _ in range(self.GROUPS):
                x, y, z = (rng.choice(pool) for _ in range(3))
                i, c = rng.choice(corners)
                shifted = g.translate(x, [rng.randint(-2, 2) for _ in range(g.rank)])
                off = list(g.unscaled(x))
                off[rng.randrange(g.rank)] += Fraction(1, 2 * g.N)
                ch = rng.choice(chamber)
                cap = rng.choice((None, 1, 2, 3))
                r2 = rng.randint(0, 2)
                r1 = r2 + rng.randint(1, 3)
                calls = self._group_calls(
                    d, *(g.unscaled(p) for p in (x, y, z, c, shifted, ch)), tuple(off), cap, r1, r2
                )
                items.append(Item(
                    f"queries {name}",
                    calls,
                    self._group_check(g, x, y, z, i, ch, cap, r1, r2),
                ))
            for _ in range(self.INDEX.get(name, 0)):
                x, y = rng.choice(pool), rng.choice(pool)
                level = rng.randint(1, 3)
                X, Y = g.unscaled(x), g.unscaled(y)
                items.append(Item(
                    f"index {name}",
                    [lambda d=d, X=X, Y=Y, level=level: A.index_exponent(
                        d,
                        A.shift(A.point_function(d, X), level),
                        A.shift(A.omega_function(d, [X, Y]), level),
                    ).exponent],
                    lambda res, g=g, x=x, y=y: expect(
                        res[0] == g.index_exponent(x, y), f"index exponent {res[0]}"
                    ),
                ))
        rng.shuffle(items)
        return items

    def _group_calls(self, d, X, Y, Z, C, S, CH, OFF, cap, r1, r2):
        A = self.A
        return [
            lambda: A.wall_distance(d, X, Y).d,
            lambda: A.wall_distance(d, Y, X).d,
            lambda: A.wall_distance(d, Y, Z).d,
            lambda: A.wall_distance(d, X, Z).d,
            lambda: A.is_vertex(d, X),
            lambda: A.is_vertex(d, OFF),
            lambda: A.vertex_type(d, C),
            lambda: A.vertex_type(d, X),
            lambda: A.vertex_type(d, S),
            lambda: A.fold_pair(d, X, Y),
            lambda: A.filtration_contains(d, X, r1, Y, r2),
            lambda: A.quotient_exponents(d, CH, cap),
        ]

    def _group_check(self, g, x, y, z, i, ch, cap, r1, r2):
        def check(res):
            dxy, dyx, dyz, dxz, vx, voff, tc, tx, ts, (fx, fy), contains, qe = res
            expect(dxy == g.wall_distance(x, y), f"wall distance {dxy} != {g.wall_distance(x, y)}")
            expect(dyx == dxy, "wall distance is not symmetric")
            expect(dyz == g.wall_distance(y, z) and dxz == g.wall_distance(x, z), "wall distance")
            expect(dxz <= dxy + dyz, "wall distance breaks the triangle inequality")
            expect(vx is True and voff is False, "is_vertex on and off the grid")
            expect(tc == i, f"vertex type {tc} != {i} at an image of corner {i}")
            expect(tx == ts, "vertex type changed under a coroot translation")
            a, b = g.scaled(fx), g.scaled(fy)
            expect(a == g.corner(tx), "fold of a vertex is not the corner of its type")
            expect(g.wall_distance(a, b) == dxy, "fold_pair changed the wall distance")
            expect(contains == (g.max_root_gap(x, y) <= r1 - r2), "filtration containment")
            expect(qe == g.quotient_exponent(ch, cap), f"quotient exponent {qe}")

        return check

    def bisection_walks(self):
        return [("A2", 2)] + [(name, 2) for name in self.CHAMBER_POOLS]


WORKLOADS = {"census": Census, "search": Search, "pairs": Pairs}
